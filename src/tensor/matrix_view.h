/**
 * @file
 * Non-owning strided views over float storage. Reuse kernels slice the
 * im2col matrix into sub-matrices (vertical panels) and column bands
 * (horizontal panels) without copying; this is the view type they use.
 */

#ifndef GENREUSE_TENSOR_MATRIX_VIEW_H
#define GENREUSE_TENSOR_MATRIX_VIEW_H

#include <cstddef>
#include <cstdint>

namespace genreuse {

/**
 * A set of equally-shaped "items" (neuron vectors or flattened neuron
 * blocks) laid out with arbitrary strides:
 *
 *   element j of item i lives at base[i * itemStride + j * elemStride].
 *
 * A vertical panel of a row-major matrix is items = rows
 * (itemStride = ld, elemStride = 1); a horizontal panel's columns are
 * items = columns (itemStride = 1, elemStride = ld).
 */
struct StridedItems
{
    const float *base = nullptr;
    size_t count = 0;      //!< number of items
    size_t length = 0;     //!< elements per item
    size_t itemStride = 0; //!< flat stride between consecutive items
    size_t elemStride = 1; //!< flat stride between elements of one item

    /** Element @p j of item @p i. */
    float
    at(size_t i, size_t j) const
    {
        return base[i * itemStride + j * elemStride];
    }

    /** True when items are contiguous rows (fast GEMM-able layout). */
    bool contiguousRows() const { return elemStride == 1; }
};

/**
 * Items read in place through two offset tables:
 *
 *   element j of item i lives at base[itemOffset[i] + elemOffset[j]].
 *
 * A column slice of the im2col matrix of a zero-padded NCHW input is
 * this view: items are output pixels, elements are (c, kh, kw) taps in
 * the reuse pattern's column order. The matrix is never built.
 */
struct GatheredItems
{
    const float *base = nullptr;
    size_t count = 0;                     //!< number of items
    size_t length = 0;                    //!< elements per item
    const uint32_t *itemOffset = nullptr; //!< count entries
    const uint32_t *elemOffset = nullptr; //!< length entries

    /** Element @p j of item @p i. */
    float
    at(size_t i, size_t j) const
    {
        return base[itemOffset[i] + elemOffset[j]];
    }
};

} // namespace genreuse

#endif // GENREUSE_TENSOR_MATRIX_VIEW_H
