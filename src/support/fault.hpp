// Deterministic, seeded fault injection for robustness tests.
//
// The pipeline's error paths — exceptions crossing ThreadPool steal
// boundaries, a batch item dying mid-graph — are nearly impossible to hit
// organically with real inputs, so they would rot untested. This
// framework plants named fault *sites* at the interesting boundaries:
// engine.run, engine.step, merge.adjust, batch.item,
// pool.group_task and the daemon's serve.accept, serve.read,
// serve.dispatch and serve.write. A test arms a site with a 1-based hit
// ordinal and the site throws InjectedFault on exactly that hit —
// deterministically, because the ordinal counts hits, not wall clock.
//
// The hooks compile to nothing unless the CPS_FAULT_INJECT CMake option
// is ON (tests GTEST_SKIP when fault::enabled() is false): production
// builds carry zero overhead, and the fault build's only unarmed cost
// is one relaxed atomic load per site visit.
//
// Invariant under test: after any injected fault, every EngineWorkspace
// stays reusable, and a subsequent clean run produces byte-identical
// output to a never-faulted run.
#pragma once

#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace cps {

/// Deterministic test failure raised by an armed fault site. `transient`
/// models a recoverable condition: the batch driver retries transient
/// faults with capped, seed-deterministic backoff instead of failing the
/// item outright.
class InjectedFault : public Error {
 public:
  InjectedFault(const std::string& site, bool transient)
      : Error(ErrorCode::kInjectedFault,
              "injected fault at site '" + site + "'" +
                  (transient ? " (transient)" : "")),
        site_(site),
        transient_(transient) {}

  const std::string& site() const { return site_; }
  bool transient() const { return transient_; }

 private:
  std::string site_;
  bool transient_;
};

namespace fault {

/// Compile-time switch (the CPS_FAULT_INJECT CMake option).
constexpr bool enabled() {
#ifdef CPS_FAULT_INJECT
  return true;
#else
  return false;
#endif
}

/// When and how an armed site fires.
struct FaultSpec {
  /// 1-based ordinal of the first hit that fires (1 = the next hit).
  std::uint64_t fire_at = 1;
  /// Consecutive hits that fire, starting at fire_at (so a retried
  /// operation can be made to fail N times and then succeed).
  std::uint64_t count = 1;
  /// Throw a transient fault (see InjectedFault::transient).
  bool transient = false;
};

/// Arm `site`; its hit counter restarts at zero. Sites are plain string
/// names (see the CPS_FAULT_POINT call sites); arming an unknown name is
/// legal and simply never fires.
void arm(const std::string& site, const FaultSpec& spec);

/// Disarm every site and reset all counters.
void disarm_all();

/// Hits observed at `site` since it was armed (0 when never armed;
/// unarmed sites do not count hits — the fast path skips the registry).
std::uint64_t hits(const std::string& site);

/// Faults actually thrown from `site` since it was armed.
std::uint64_t fires(const std::string& site);

namespace detail {
/// Registered by CPS_FAULT_POINT. Throws InjectedFault when armed to
/// fire at this hit; otherwise just counts (armed sites only).
void hit(const char* site);
}  // namespace detail

}  // namespace fault
}  // namespace cps

/// Named fault site. Compiles away without CPS_FAULT_INJECT; with it,
/// costs one relaxed atomic load while no site is armed.
#ifdef CPS_FAULT_INJECT
#define CPS_FAULT_POINT(site) ::cps::fault::detail::hit(site)
#else
#define CPS_FAULT_POINT(site) \
  do {                        \
  } while (false)
#endif
