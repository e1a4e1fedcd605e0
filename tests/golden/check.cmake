# Runs one bench and checks its stdout byte for byte against a golden file:
#
#   cmake -DBENCH=<binary> -DFLAGS="<flags>" -DGOLDEN=<reference>
#         -DOUT=<capture> -P tests/golden/check.cmake
#
# CMakeLists.txt registers one ctest test per row of its golden table
# (label `golden`, so `ctest -L golden` runs them all).  A mismatch fails
# the test and prints the diff.
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(COMMAND "${BENCH}" ${flags}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${FLAGS} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
