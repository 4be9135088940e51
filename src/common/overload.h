/**
 * @file
 * Process-wide overload level: the knob the serve engine's queue-delay
 * controller turns and the guard's verification path reads. Living in
 * common/ keeps the dependency arrow pointing the right way — the
 * guard (src/core) must not know about the serve engine (src/serve),
 * but both can see this one relaxed atomic.
 *
 * Levels walk the guard ladder *down* (cheaper, less verified):
 *
 *   0  normal          full configured verification
 *   1  reduced-verify  half the verification sample rows, no drift
 *                      boost — the guard still measures, with less
 *                      evidence per forward
 *   2  unverified      verification and re-cluster retries skipped
 *                      entirely; forwards ride the full-reuse rung on
 *                      trust and are counted ("guard.unverified")
 *
 * The controller raises the level under sustained queue delay and
 * restores it when the queue drains; reads are one relaxed load, so a
 * level consult on the guarded forward path costs the same as the
 * eventlog/fault gates.
 */

#ifndef GENREUSE_COMMON_OVERLOAD_H
#define GENREUSE_COMMON_OVERLOAD_H

#include <atomic>

namespace genreuse {
namespace overload {

/** Highest meaningful level (see the ladder above). */
constexpr int kMaxLevel = 2;

namespace detail {
extern std::atomic<int> g_level;
} // namespace detail

/** Current level (0 = normal). One relaxed load. */
inline int
level()
{
    return detail::g_level.load(std::memory_order_relaxed);
}

/** Set the level, clamped to [0, kMaxLevel]; mirrors it into the
 *  "overload.level" metrics gauge and counts raises. */
void setLevel(int level);

/** "normal" / "reduced-verify" / "unverified". */
const char *levelName(int level);

} // namespace overload
} // namespace genreuse

#endif // GENREUSE_COMMON_OVERLOAD_H
