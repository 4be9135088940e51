/**
 * @file
 * Process-wide heap allocation counter. alloc_count.cc replaces the
 * global operator new, including the std::align_val_t forms that
 * tensor storage (AlignedAllocator) goes through, so every heap
 * allocation of the benchmark binary is counted.
 */

#ifndef PERFBENCH_ALLOC_COUNT_H
#define PERFBENCH_ALLOC_COUNT_H

#include <cstdint>

namespace perfbench::alloc {

struct Counts
{
    uint64_t calls = 0; //!< operator new calls
    uint64_t bytes = 0; //!< bytes requested by those calls
};

/** Totals since process start, over all threads. */
Counts counts();

} // namespace perfbench::alloc

#endif // PERFBENCH_ALLOC_COUNT_H
