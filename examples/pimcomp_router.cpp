// pimcomp_router — a thin front daemon for a pimcompd fleet.
//
// Speaks the same newline-delimited JSON protocol as pimcompd (clients and
// scripts need no changes), but compiles nothing itself: each compile
// request is sharded by its (graph, hardware) fingerprint onto one backend
// daemon — identical workloads always reach the same daemon's warm session
// and caches — and the reply frames are relayed back verbatim. Backends
// are health-checked with active pings; a backend that dies mid-request is
// skipped and the request retried on the next one (compile requests are
// idempotent and content-addressed, and already-relayed scenarios are
// deduplicated, so the client just sees the batch complete). SIGTERM/
// SIGINT drain: in-flight requests finish before the router exits.
//
//   pimcomp_router --unix /run/pimcomp_router.sock \
//     --backend unix:/run/pimcompd-a.sock --backend unix:/run/pimcompd-b.sock
//   pimcomp_router --port 7900 --backend 10.0.0.1:7878 \
//     --backend 10.0.0.2:7878 --auth-token SECRET
//
// --auth-token sets the one fleet-wide secret: required of router clients
// and presented to the backend daemons (start them with the same token).
// See docs/serving.md ("Fleet topology") for the full deployment story.

#include "fleet/router.hpp"

int main(int argc, char** argv) {
  return pimcomp::fleet::run_router(argc - 1, argv + 1, "pimcomp_router");
}
