#include "provenance.h"

#include "json.h"
#include "simd.h"

// The build burns these in via per-file COMPILE_DEFINITIONS (see
// src/common/CMakeLists.txt); the fallbacks keep non-CMake builds of
// this TU compiling.
#ifndef GENREUSE_GIT_DESCRIBE
#define GENREUSE_GIT_DESCRIBE "unknown"
#endif
#ifndef GENREUSE_COMPILER
#define GENREUSE_COMPILER "unknown"
#endif
#ifndef GENREUSE_BUILD_PRESET
#define GENREUSE_BUILD_PRESET "unknown"
#endif

namespace genreuse {
namespace provenance {

const char *
gitDescribe()
{
    return GENREUSE_GIT_DESCRIBE;
}

const char *
compiler()
{
    return GENREUSE_COMPILER;
}

const char *
buildPreset()
{
    return GENREUSE_BUILD_PRESET;
}

const char *
simdLevel()
{
    return simd::levelName(simd::activeLevel());
}

std::string
toJson()
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.provenance/1");
    w.key("git").value(gitDescribe());
    w.key("compiler").value(compiler());
    w.key("preset").value(buildPreset());
    w.key("simd").value(simdLevel());
    w.endObject();
    return w.str();
}

} // namespace provenance
} // namespace genreuse
