/**
 * @file
 * The op-count vocabulary every kernel reports in: OpCounts (MACs,
 * element loads/stores, scalar ALU ops, hash-table probes), the four
 * reuse pipeline stages of the paper's Table 3, and OpLedger, a
 * per-stage accumulator. The MCU cost model (src/mcu/cost_model)
 * prices these counts in cycles; everything the paper's latency claims
 * rest on flows through this vocabulary.
 *
 * Kernels report through reportOps() into the ledger attached to their
 * layer (Conv2D::setLedger and friends); that ledger is the one sink.
 * With no ledger attached, the production path, reporting is a single
 * predictable branch.
 */

#ifndef GENREUSE_COMMON_OP_LEDGER_H
#define GENREUSE_COMMON_OP_LEDGER_H

#include <cstddef>
#include <cstdint>

namespace genreuse {

/** Abstract operation counts reported by a kernel. */
struct OpCounts
{
    uint64_t macs = 0;      //!< 8/16-bit SIMD-able multiply-accumulates
    uint64_t elemMoves = 0; //!< element loads+stores (im2col, reorder, ...)
    uint64_t aluOps = 0;    //!< scalar adds/compares outside the MAC path
    uint64_t tableOps = 0;  //!< hash-table probes/updates in clustering

    OpCounts &operator+=(const OpCounts &o);
    OpCounts operator+(const OpCounts &o) const;
    bool operator==(const OpCounts &o) const;
    bool isZero() const;
};

/** The reuse pipeline stages of the paper's Table 3 breakdown. */
enum class Stage
{
    Transformation, //!< im2col + reuse-order layout transformation
    Clustering,     //!< LSH hashing + signature grouping + centroids
    Gemm,           //!< centroid x weight multiplication
    Recovering,     //!< duplicating centroid results / summing partials
    NumStages,
};

/** Human-readable stage name. */
const char *stageName(Stage s);

/**
 * Per-stage accounting for one layer (or one network) execution: the
 * unit that Table 3 rows and all latency numbers are computed from.
 * Pricing-free; src/mcu's CostLedger derives from this to add
 * milliseconds on a board.
 */
class OpLedger
{
  public:
    /** Add op counts to a stage. */
    void add(Stage stage, const OpCounts &ops);

    /** Merge another ledger stage-by-stage. */
    void merge(const OpLedger &other);

    const OpCounts &stage(Stage s) const;

    /** Sum over all stages. */
    OpCounts total() const;

    bool operator==(const OpLedger &o) const;

    void clear();

  protected:
    OpCounts stages_[static_cast<size_t>(Stage::NumStages)];
};

/** The single reporting entry point kernels use: adds @p ops to the
 *  caller-supplied ledger when one is attached. */
inline void
reportOps(OpLedger *sink, Stage stage, const OpCounts &ops)
{
    if (sink)
        sink->add(stage, ops);
}

} // namespace genreuse

#endif // GENREUSE_COMMON_OP_LEDGER_H
