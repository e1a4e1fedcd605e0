# Runs one bench and checks its stdout byte for byte:
#
#   cmake -DBENCH=<binary> -DFLAGS="<flags>" -DOUT=<capture>
#         [-DGOLDEN=<file> | -DREFERENCE="<flags>" |
#          -DSTATUS=<exit status> -DSTDERR="<text>"]
#         [-DFIRST="<flags>|<flags>..."] [-DWITH="<flags>|<flags>..."]
#         [-DDIR=<directory>] -P tests/golden/check.cmake
#
# GOLDEN compares the run's stdout with a committed file.  REFERENCE runs
# the bench at those flags first and compares with that stdout instead.
# STATUS expects a refusal: the run must exit with that status and print
# STDERR on stderr, and nothing is compared.  FIRST runs must succeed, in
# order, before the run; WITH runs start together with it (one
# execute_process runs its COMMANDs concurrently) and must succeed too.
# DIR is emptied first and every run works in it, so rows never share
# files.  With none of GOLDEN, REFERENCE and STATUS the script only runs
# the bench and fails if it exits non-zero: that is how a WITH run is
# started, so its stdout lands in OUT and not in the pipe to the next run.
#
# CMakeLists.txt registers one ctest test per row of its check table
# (labels `golden` and `determinism`, so `ctest -L golden` and
# `ctest -L determinism` run them).  A mismatch fails the test and prints
# the diff.
if(DIR)
  file(REMOVE_RECURSE "${DIR}")
  file(MAKE_DIRECTORY "${DIR}")
else()
  set(DIR "${CMAKE_CURRENT_BINARY_DIR}")  # -P mode: the caller's directory
endif()

# Runs the bench at `flags` with stdout to `out`; fails unless it exits 0.
function(run_bench flags out)
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(COMMAND "${BENCH}" ${args}
                  WORKING_DIRECTORY "${DIR}"
                  OUTPUT_FILE "${out}"
                  RESULT_VARIABLE status
                  TIMEOUT 600)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${flags} exited with ${status}")
  endif()
endfunction()

if(NOT DEFINED GOLDEN AND NOT DEFINED REFERENCE AND NOT DEFINED STATUS)
  run_bench("${FLAGS}" "${OUT}")
  return()
endif()

string(REPLACE "|" ";" first "${FIRST}")
set(n 0)
foreach(flags IN LISTS first)
  math(EXPR n "${n} + 1")
  run_bench("${flags}" "${DIR}/first${n}.txt")
endforeach()

if(DEFINED REFERENCE)
  set(GOLDEN "${DIR}/reference.txt")
  run_bench("${REFERENCE}" "${GOLDEN}")
endif()

string(REPLACE "|" ";" with "${WITH}")
set(commands)
set(n 0)
foreach(flags IN LISTS with)
  math(EXPR n "${n} + 1")
  list(APPEND commands COMMAND "${CMAKE_COMMAND}" "-DBENCH=${BENCH}"
       "-DFLAGS=${flags}" "-DOUT=${DIR}/with${n}.txt"
       -P "${CMAKE_CURRENT_LIST_FILE}")
endforeach()
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(${commands}
                COMMAND "${BENCH}" ${flags}
                WORKING_DIRECTORY "${DIR}"
                OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE stderr
                RESULTS_VARIABLE statuses
                TIMEOUT 600)
list(POP_BACK statuses status)
foreach(with_status IN LISTS statuses)
  if(NOT with_status EQUAL 0)
    message(FATAL_ERROR "${stderr}\na run started with "
                        "${BENCH} ${FLAGS} exited with ${with_status}")
  endif()
endforeach()

if(DEFINED STATUS)
  if(NOT status EQUAL STATUS)
    message(FATAL_ERROR "${stderr}\n${BENCH} ${FLAGS} exited with "
                        "${status}, expected ${STATUS}")
  endif()
  string(FIND "${stderr}" "${STDERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${stderr}\n${BENCH} ${FLAGS} did not say "
                        "'${STDERR}' on stderr")
  endif()
  return()
endif()

if(NOT stderr STREQUAL "")
  message("${stderr}")
endif()
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${FLAGS} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
