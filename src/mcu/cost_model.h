/**
 * @file
 * Operation-count based latency model. Kernels report exactly what work
 * they did (MACs, element moves, scalar ALU ops, hash-table probes) via
 * the common op-ledger vocabulary (src/common/op_ledger.h); this module
 * prices those counts in cycles for a given board and converts to
 * milliseconds. This substitutes for running on the real STM32 boards
 * while preserving every quantity the paper's latency claims depend on
 * (see DESIGN.md).
 */

#ifndef GENREUSE_MCU_COST_MODEL_H
#define GENREUSE_MCU_COST_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/op_ledger.h"
#include "mcu_spec.h"

namespace genreuse {

/**
 * Prices OpCounts on a board. All kernels in this library are
 * deterministic in their op counts, so latency is exactly reproducible.
 */
class CostModel
{
  public:
    explicit CostModel(McuSpec spec) : spec_(std::move(spec)) {}

    const McuSpec &spec() const { return spec_; }

    /** Cycle count for the given op mix. */
    double cycles(const OpCounts &ops) const;

    /** Milliseconds for the given op mix. */
    double milliseconds(const OpCounts &ops) const;

    /** Total milliseconds of a ledger. */
    double milliseconds(const OpLedger &ledger) const;

  private:
    McuSpec spec_;
};

/**
 * An OpLedger priceable on a board: the unit that Table 3 rows and all
 * latency numbers are computed from. Accounting (add/merge/stage/
 * total) comes from the common base so kernels below src/mcu can
 * report into it; this adds the milliseconds views.
 */
class CostLedger : public OpLedger
{
  public:
    CostLedger() = default;

    /** Adopt counts recorded into a plain OpLedger. */
    explicit CostLedger(const OpLedger &ops) : OpLedger(ops) {}

    /** Milliseconds of one stage on a board. */
    double stageMs(Stage s, const CostModel &model) const;

    /** Total milliseconds on a board. */
    double totalMs(const CostModel &model) const;
};

} // namespace genreuse

#endif // GENREUSE_MCU_COST_MODEL_H
