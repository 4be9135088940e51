/**
 * @file
 * Build provenance: which code, compiler, and kernel configuration
 * produced an artifact. Bench records outlive the working tree that
 * made them, and "5% regression" is meaningless when the two records
 * came from different commits, compilers, or SIMD levels — the usual
 * way that happens is silently, by diffing a stale baseline. Every
 * BENCH_*.json therefore carries a provenance object, and bench_diff
 * warns when the two sides' provenance disagrees.
 *
 * The git describe / compiler / preset strings are burned in at
 * configure time (scoped to one TU so a new commit rebuilds one file,
 * not the world); the SIMD level is resolved at *runtime* from the
 * dispatch table, because GENREUSE_SIMD and hardware detection decide
 * it, not the build.
 */

#ifndef GENREUSE_COMMON_PROVENANCE_H
#define GENREUSE_COMMON_PROVENANCE_H

#include <string>

namespace genreuse {
namespace provenance {

/** `git describe --always --dirty` at configure time ("unknown" when
 *  the source tree was not a git checkout). */
const char *gitDescribe();

/** Compiler id + version, e.g. "GNU 12.2.0". */
const char *compiler();

/** Build configuration summary: build type, GENREUSE_SIMD_MODE, and
 *  any sanitizer, e.g. "Release simd=dispatch" or
 *  "RelWithDebInfo simd=dispatch +tsan". */
const char *buildPreset();

/** Name of the *active* SIMD dispatch level ("scalar"/"avx2"/"neon")
 *  — resolved now, at runtime, not at build time. */
const char *simdLevel();

/** The genreuse.provenance/1 object with all four fields. */
std::string toJson();

} // namespace provenance
} // namespace genreuse

#endif // GENREUSE_COMMON_PROVENANCE_H
