// fleet_registryd - the membership registry of an elastic worker fleet.
//
// Run one per fleet; daemons join it and coordinators resolve it:
//
//   head  $ fleet_registryd --serve=4700
//   hostA $ sweep_workerd --serve=4701 --fleet=head:4700 --advertise=hostA
//   hostB $ sweep_workerd --serve=4701 --fleet=head:4700 --advertise=hostB
//   user  $ fig5_mean_interval --fleet=head:4700
//
// The registry holds soft membership state: daemons heartbeat it
// (sweep_workerd --heartbeat-ms) and anything silent for
// --evict-after-ms is evicted, so a killed daemon disappears from the
// pool without operator action - and a coordinator resolving mid-sweep
// is handed whatever is live *now*, which is how a fresh daemon joined
// seconds ago can backfill a dead worker in a running sweep.  When
// several coordinators contend, each resolve() is granted a fair
// weighted share of the fleet, signed as per-member lease tokens the
// daemons themselves verify.
//
// Flags (strict; anything malformed exits 2, like the bench flags):
//   --serve=PORT       listen on PORT (required; 0 = ephemeral, printed)
//   --evict-after-ms=N evict a member after N ms without a heartbeat
//                      (default 10000)
//   --lease-ttl-ms=N   how long a coordinator's grant counts toward the
//                      fair-share split (default 60000)
//   --auth-key-file=PATH
//                      pre-shared fleet key: joins and resolves must pass
//                      the HMAC challenge/response, and granted leases
//                      are signed under this key
//   --quiet            no membership notes on stderr
#include <cstdio>
#include <string>

#include "fleet/auth.h"
#include "fleet/registry.h"
#include "support/flags.h"
#include "support/wire.h"

int main(int argc, char** argv) {
  using namespace rbx;
  fleet::RegistryOptions opts;
  std::string auth_key_file;
  flags::Table table;
  table.flags = {
      {"--serve", "PORT",
       flags::count(&opts.port, 0, 65535, "expected a port in 0..65535"),
       /*required=*/true},
      {"--evict-after-ms", "N",
       flags::count(&opts.table.evict_after_ms, 1, 2147483647,
                    "expected a positive millisecond count")},
      {"--lease-ttl-ms", "N",
       flags::count(&opts.table.lease_ttl_ms, 1, 2147483647,
                    "expected a positive millisecond count")},
      {"--auth-key-file", "PATH",
       flags::text(&auth_key_file, "expected a key file path")},
      {"--quiet", "", flags::on(&opts.quiet)},
  };
  flags::parse(argc, argv, table);
  try {
    if (!auth_key_file.empty()) {
      opts.table.auth_key = fleet::load_auth_key(auth_key_file);
    }
    fleet::RegistryServer server(opts);
    std::printf("fleet_registryd: listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    return server.serve() ? 0 : 1;
  } catch (const net::Error& e) {
    std::fprintf(stderr, "fleet_registryd: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // An unreadable --auth-key-file.
    std::fprintf(stderr, "fleet_registryd: %s\n", e.what());
    return 1;
  }
}
