#ifndef FRONTIERS_BASE_FAILPOINT_H_
#define FRONTIERS_BASE_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string_view>

namespace frontiers::failpoint {

/// Fault-injection points for the torture harness (DESIGN.md, "Torture
/// subsystem").  A failpoint is a named site in engine code written as
///
///   if (FRONTIERS_FAILPOINT("snapshot.write_io")) {
///     return Status::Error("injected failure at failpoint "
///                          "'snapshot.write_io'");
///   }
///
/// where the site's recovery path is exactly the one a real fault (failed
/// write, exhausted allocation) would take.  Torture runs arm points by
/// name — programmatically via Arm(), or through the FRONTIERS_FAILPOINTS
/// environment variable — and assert the engine degrades to a clean
/// `Status` / resumable stop instead of crashing or corrupting state.
///
/// Cost when disabled: the macro is one relaxed atomic load plus a branch
/// (the same budget as obs::Span's g_span_mask check) — no registry lookup,
/// no string handling.  The slow path behind the branch only runs while at
/// least one point is armed anywhere in the process.
///
/// Naming convention: `<subsystem>.<site>` lowercase, e.g. `chase.commit`,
/// `fact_set.insert_batch`, `snapshot.read_io`.  Names are string literals
/// at the site; arming an unknown name is allowed (it simply never fires
/// until code containing that site runs).

namespace internal {

/// Number of currently armed failpoints, process-wide.  Zero on the fast
/// path of every FRONTIERS_FAILPOINT evaluation in a process that never
/// arms anything.
extern std::atomic<uint32_t> g_armed_points;

/// Slow path of FRONTIERS_FAILPOINT: returns true if `name` is armed and
/// this hit consumes one of its remaining fires.
bool Fire(std::string_view name);

}  // namespace internal

/// Arms `name`: after skipping the next `skip` hits, the following
/// `fire_count` hits fire (return true from FRONTIERS_FAILPOINT), then the
/// point disarms itself.  Re-arming an already-armed point replaces its
/// schedule; fired-count history is preserved.
void Arm(std::string_view name, uint64_t fire_count = 1, uint64_t skip = 0);

/// Disarms `name` (no-op if not armed).  The fired-count history survives.
void Disarm(std::string_view name);

/// Disarms every point.  Fired-count histories survive.
void DisarmAll();

/// Total times `name` has fired since process start.
uint64_t FiredCount(std::string_view name);

/// Total times `name` was evaluated while armed (fired or skipped).
uint64_t HitCount(std::string_view name);

/// Arms points from a spec string: `name[=fire_count[@skip]]` entries
/// separated by `;` or `,` — e.g. `"snapshot.write_io;chase.commit=2@1"`.
/// Returns the number of points armed; malformed entries are skipped.
/// The FRONTIERS_FAILPOINTS environment variable is parsed through this
/// once, before main() runs.
size_t ArmFromSpec(std::string_view spec);

}  // namespace frontiers::failpoint

/// True if the named failpoint is armed and this evaluation fires it.
/// `name` must be a string literal (or otherwise outlive the call).
#define FRONTIERS_FAILPOINT(name)                                  \
  (::frontiers::failpoint::internal::g_armed_points.load(          \
       std::memory_order_relaxed) != 0 &&                          \
   ::frontiers::failpoint::internal::Fire(name))

#endif  // FRONTIERS_BASE_FAILPOINT_H_
