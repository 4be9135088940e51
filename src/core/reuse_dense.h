/**
 * @file
 * ReuseDense — a fully connected layer that runs segment reuse
 * (src/core/fc_reuse.h) at inference once fitted, and the exact path
 * during training. Completes the paper's §3.1 remark ("reuse can also
 * apply to fully connected layers") as a drop-in Layer, so a network
 * can be built with reuse on its FC head too — with the unfavorable
 * batch-1 economics the ablation_fc_reuse bench quantifies.
 */

#ifndef GENREUSE_CORE_REUSE_DENSE_H
#define GENREUSE_CORE_REUSE_DENSE_H

#include <memory>

#include "fc_reuse.h"
#include "guard.h"
#include "nn/dense.h"

namespace genreuse {

/** Dense layer with optional inference-time segment reuse. */
class ReuseDense : public Layer
{
  public:
    ReuseDense(std::string name, size_t in_features, size_t out_features,
               Rng &rng);

    /**
     * Fit the segment hash family from sample inputs and enable reuse.
     * @param sample N x inFeatures matrix of representative inputs
     * @param segment_len L (1 <= L <= inFeatures)
     * @param num_hashes H
     */
    void fitReuse(const Tensor &sample, size_t segment_len,
                  size_t num_hashes);

    /** Disable reuse; inference reverts to the exact product. */
    void disableReuse() { reuseEnabled_ = false; }

    bool reuseEnabled() const { return reuseEnabled_; }

    /** Statistics of the last reuse-mode forward. */
    const ReuseStats &lastStats() const { return lastStats_; }

    /** FullReuse normally; ExactFallback when the last reuse-mode
     *  forward hit non-finite activations and ran exactly. */
    GuardRung lastRung() const { return lastRung_; }

    Tensor forward(const Tensor &x, bool training) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override { return dense_.params(); }
    Shape outputShape(const Shape &in) const override
    {
        return dense_.outputShape(in);
    }
    void appendCost(const Shape &in, CostLedger &ledger) const override;

    /** Attach a cost ledger filled by reuse-mode forwards. */
    void setLedger(CostLedger *ledger) { ledger_ = ledger; }

    Dense &dense() { return dense_; }

  private:
    Dense dense_;
    bool reuseEnabled_ = false;
    size_t segmentLen_ = 0;
    std::unique_ptr<HashFamily> family_;
    CostLedger *ledger_ = nullptr;
    Tensor flat_; //!< flatten / fault-injection scratch, reused
    ReuseStats lastStats_;
    GuardRung lastRung_ = GuardRung::FullReuse;
    StateOwner stateOwner_; //!< keys this layer's audit slot
};

} // namespace genreuse

#endif // GENREUSE_CORE_REUSE_DENSE_H
