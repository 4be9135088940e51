/**
 * @file
 * Locality-sensitive hashing (§2 of the paper): sign-of-dot-product
 * hyperplane hashing. H hash functions map a neuron vector to an H-bit
 * signature; vectors with equal signatures form a cluster.
 */

#ifndef GENREUSE_LSH_LSH_H
#define GENREUSE_LSH_LSH_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "tensor/matrix_view.h"
#include "tensor/tensor.h"

namespace genreuse {

/**
 * A family of H hyperplane hash functions over vectors of a fixed
 * length L. h_v(x) = 1 iff v.x + bias > 0 (Equation 1; the paper's
 * form has bias = 0, learned families may carry a centering bias).
 */
class HashFamily
{
  public:
    HashFamily() = default;

    /**
     * @param vectors H x L matrix, one hash hyperplane per row
     * @param biases optional per-function bias (empty means all zero)
     */
    HashFamily(Tensor vectors, std::vector<float> biases = {});

    /** Random Gaussian hyperplanes — the "lightweight" profiling family. */
    static HashFamily random(size_t num_functions, size_t length, Rng &rng);

    size_t numFunctions() const { return vectors_.shape().rows(); }
    size_t vectorLength() const { return vectors_.shape().cols(); }

    const Tensor &vectors() const { return vectors_; }
    const std::vector<float> &biases() const { return biases_; }

    /** Signature of a single strided item. @pre item length matches */
    uint64_t signature(const StridedItems &items, size_t index) const;

    /**
     * Signatures for every item. Uses a GEMM fast path when the items
     * are contiguous rows.
     */
    std::vector<uint64_t> signatures(const StridedItems &items) const;

    /**
     * signatures() without the output allocation: writes into
     * @p sigs[0 .. items.count). Dispatched-GEMM fast paths cover
     * contiguous rows AND unit-item-stride column layouts (the
     * horizontal kernel's per-band view); scratch comes from the
     * calling thread's stream arena. Both fast paths accumulate each
     * projection as the same ordered float sequence, so row- and
     * column-view signatures of the same data agree bit-for-bit.
     */
    void signaturesInto(const StridedItems &items, uint64_t *sigs) const;

    /**
     * MAC count of hashing @p n items (n * H * L) — consumed by the MCU
     * cost model, which charges clustering as an extra X x Hash GEMM.
     */
    size_t
    hashMacs(size_t n) const
    {
        return n * numFunctions() * vectorLength();
    }

  private:
    Tensor vectors_;  // H x L
    Tensor vectorsT_; // L x H, cached once for the signature GEMM
    std::vector<float> biases_;
};

/**
 * Signatures of every vertical slice of a layer's patches in one
 * dispatched sweep (simd::Ops::sliceSignatures) over the padded input
 * @p items reads in place: slice k is elements [k * sliceLength,
 * min(length, (k + 1) * sliceLength)) of @p items, hashed by
 * families[k], and item i's signature lands in sigs[k * items.count +
 * i]. @p grid is the items' layout, item i at items.base +
 * items.itemOffset[i]. Bit-identical to HashFamily::signaturesInto()
 * on each slice materialized as contiguous rows.
 */
void sliceSignaturesInto(const GatheredItems &items,
                         const simd::PatchGrid &grid, size_t sliceLength,
                         const std::vector<HashFamily> &families,
                         uint64_t *sigs);

} // namespace genreuse

#endif // GENREUSE_LSH_LSH_H
