/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels underneath the
 * paper reproduction: blocked GEMM (and its narrow-N tile), im2col,
 * 1x1 conv eval forwards at SqueezeNet Fire shapes, guarded-reuse conv
 * eval forwards on the fused and the im2col path, the eval epilogue
 * kernels (row-outer recovery, BatchNorm), im2col reordering, LSH
 * signatures/clustering, the accuracy bound's power iteration, and
 * the vertical/horizontal reuse GEMMs against the exact GEMM on
 * redundant inputs. These are wall-clock numbers of this host library
 * (the MCU latencies in the table/figure benches come from the cycle
 * cost model instead).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>

#include "bench_common.h"
#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/rtrace.h"
#include "common/simd.h"
#include "core/fc_reuse.h"
#include "core/guard.h"
#include "core/reuse_audit.h"
#include "core/horizontal_reuse.h"
#include "core/reorder.h"
#include "core/vertical_reuse.h"
#include "data/synthetic.h"
#include "lsh/clustering.h"
#include "nn/conv2d.h"
#include "quant/int8_quant.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

using namespace genreuse;

namespace {

Tensor
redundantMatrix(size_t rows, size_t cols, size_t protos, uint64_t seed)
{
    Rng rng(seed);
    Tensor prototypes = Tensor::randomNormal({protos, cols}, rng);
    Tensor out({rows, cols});
    for (size_t r = 0; r < rows; ++r) {
        size_t p = rng.uniformInt(protos);
        std::copy(prototypes.data() + p * cols,
                  prototypes.data() + (p + 1) * cols,
                  out.data() + r * cols);
    }
    return out;
}

void
BM_GemmCifarNetConv2(benchmark::State &state)
{
    // The N x Din x Dout of CifarNet Conv2 (256 x 1600 x 64).
    Rng rng(1);
    Tensor a = Tensor::randomNormal({256, 1600}, rng);
    Tensor b = Tensor::randomNormal({1600, 64}, rng);
    Tensor c({256, 64});
    for (auto _ : state) {
        gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 256 * 1600 * 64);
}
BENCHMARK(BM_GemmCifarNetConv2);

void
BM_Im2colCifar(benchmark::State &state)
{
    ConvGeometry geom;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.pad = 2;
    Rng rng(2);
    Tensor x = Tensor::randomNormal({1, 3, 32, 32}, rng);
    for (auto _ : state) {
        Tensor cols = im2col(x, geom);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2colCifar);

void
BM_PointwiseConvEval(benchmark::State &state)
{
    // Eval forward of a 1x1 exact conv at SqueezeNet Fire shapes
    // (Cin -> Cout @ H*W): one K x X GEMM per image on the NCHW planes.
    const size_t cin = state.range(0), cout = state.range(1);
    const size_t side = static_cast<size_t>(state.range(2));
    Rng rng(3);
    Conv2D conv("pointwise", cin, cout, 1, 1, 0, rng);
    Tensor x = Tensor::randomNormal({1, cin, side, side}, rng);
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * cin * cout * side * side);
}
BENCHMARK(BM_PointwiseConvEval)
    ->Args({64, 16, 16})  // Fire2 squeeze @ 16x16
    ->Args({384, 64, 4})  // Fire8 squeeze @ 4x4
    ->Args({16, 64, 16}); // Fire2 expand_1x1 @ 16x16

void
BM_ColumnReorderPixelMajor(benchmark::State &state)
{
    ConvGeometry geom;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.pad = 2;
    Rng rng(3);
    Tensor x = Tensor::randomNormal({geom.rows(), geom.cols()}, rng);
    ReusePattern p;
    p.columnOrder = ColumnOrder::PixelMajor;
    auto col_perm = columnPermutation(p, geom);
    std::vector<uint32_t> id(geom.rows());
    for (size_t i = 0; i < id.size(); ++i)
        id[i] = static_cast<uint32_t>(i);
    for (auto _ : state) {
        Tensor xr = reorderMatrix(x, id, col_perm);
        benchmark::DoNotOptimize(xr.data());
    }
}
BENCHMARK(BM_ColumnReorderPixelMajor);

void
BM_LshSignatures(benchmark::State &state)
{
    // Args: hash count H, item stride. Stride 25 hashes packed 25-float
    // items; stride 1600 hashes one 25-column vertical slice in place
    // in a 1600-wide im2col matrix, as the vertical reuse kernel does.
    const size_t h = static_cast<size_t>(state.range(0));
    const size_t stride = static_cast<size_t>(state.range(1));
    Rng rng(4);
    Tensor x = redundantMatrix(1024, stride, 16, 5);
    HashFamily family = HashFamily::random(h, 25, rng);
    StridedItems items{x.data(), 1024, 25, stride, 1};
    for (auto _ : state) {
        auto sigs = family.signatures(items);
        benchmark::DoNotOptimize(sigs.data());
    }
}
BENCHMARK(BM_LshSignatures)
    ->Args({2, 25})
    ->Args({4, 25})
    ->Args({8, 25})
    ->Args({4, 1600});

void
BM_ClusterBySignature(benchmark::State &state)
{
    Rng rng(5);
    Tensor x = redundantMatrix(1024, 25, 16, 6);
    HashFamily family = HashFamily::random(4, 25, rng);
    StridedItems items{x.data(), 1024, 25, 25, 1};
    for (auto _ : state) {
        ClusterResult res = clusterBySignature(items, family);
        benchmark::DoNotOptimize(res.assignments.data());
    }
}
BENCHMARK(BM_ClusterBySignature);

/** The dispatched table (arg 0) or the scalar oracle (arg 1). */
const simd::Ops &
opsForArg(int64_t arg)
{
    return arg == 0 ? simd::ops() : simd::opsFor(simd::Level::Scalar);
}

void
BM_ClusterSums(benchmark::State &state)
{
    // One slice's unscaled centroid sums read in place from a padded
    // input, as the fused reuse pass computes them. Args: shape (0 =
    // CifarNet conv2, channel 0's 5x5 taps (C1), 256 pixels in 10
    // clusters; 1 = Fire4 expand_3x3, nine channels at one tap (C2),
    // 64 pixels in 48 clusters) and kernel (0 = dispatched, 1 = scalar
    // oracle).
    const bool fire = state.range(0) == 1;
    const size_t side = fire ? 8 : 16, k = fire ? 3 : 5, pad = k / 2;
    const size_t pw = side + 2 * pad, plane = pw * pw;
    const size_t n = side * side, nc = fire ? 48 : 10;
    Rng rng(6);
    const Tensor x = Tensor::randomNormal({32 * plane}, rng);
    std::vector<uint32_t> item_off(n), elem_off;
    for (size_t i = 0; i < n; ++i)
        item_off[i] = static_cast<uint32_t>(i / side * pw + i % side);
    if (fire) {
        for (size_t c = 0; c < 9; ++c)
            elem_off.push_back(static_cast<uint32_t>(c * plane + pw + 1));
    } else {
        for (size_t kh = 0; kh < k; ++kh)
            for (size_t kw = 0; kw < k; ++kw)
                elem_off.push_back(static_cast<uint32_t>(kh * pw + kw));
    }
    // CSR membership of a random assignment that uses every cluster.
    std::vector<uint32_t> assign(n);
    for (size_t i = 0; i < n; ++i)
        assign[i] = static_cast<uint32_t>(i < nc ? i : rng.uniformInt(nc));
    std::vector<size_t> offsets(nc + 1, 0);
    for (uint32_t c : assign)
        ++offsets[c + 1];
    for (size_t c = 0; c < nc; ++c)
        offsets[c + 1] += offsets[c];
    std::vector<uint32_t> members(n);
    std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < n; ++i)
        members[cursor[assign[i]]++] = static_cast<uint32_t>(i);
    std::vector<float> sums(nc * elem_off.size());
    const simd::Ops &ops = opsForArg(state.range(1));
    for (auto _ : state) {
        ops.clusterSums(x.data(), item_off.data(), elem_off.data(),
                        elem_off.size(), offsets.data(), members.data(), nc,
                        sums.data());
        benchmark::DoNotOptimize(sums.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(std::string(fire ? "fire4.C2" : "conv2.C1") + " " +
                   ops.name);
}
BENCHMARK(BM_ClusterSums)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_SliceSignatures(benchmark::State &state)
{
    // Every slice's signatures of one layer forward in one sweep over
    // the padded input, as the fused reuse pass hashes them, H = 4.
    // Args: shape (0 = CifarNet conv2, 64 channels @ 16x16 5x5, C1
    // slices of one channel's 25 taps; 1 = Fire8 expand_3x3, 64
    // channels @ 4x4 3x3, C2 slices of nine channels at one tap) and
    // kernel (0 = dispatched, 1 = scalar oracle).
    const bool fire = state.range(0) == 1;
    const size_t cin = 64, side = fire ? 4 : 16, k = fire ? 3 : 5;
    const size_t pw = side + 2 * (k / 2), plane = pw * pw;
    const size_t len = fire ? 9 : k * k, h = 4;
    Rng rng(6);
    const Tensor x = Tensor::randomNormal({cin * plane}, rng);
    std::vector<uint32_t> elem_off;
    for (size_t kh = 0; kh < k; ++kh)
        for (size_t kw = 0; kw < k; ++kw)
            for (size_t c = 0; c < cin; ++c)
                elem_off.push_back(
                    static_cast<uint32_t>(c * plane + kh * pw + kw));
    if (!fire) // C1: [c][kh][kw]
        for (size_t c = 0, e = 0; c < cin; ++c)
            for (size_t t = 0; t < k * k; ++t, ++e)
                elem_off[e] = static_cast<uint32_t>(c * plane +
                                                    t / k * pw + t % k);
    const size_t ns = elem_off.size() / len;
    const Tensor v = Tensor::randomNormal({ns * h * len}, rng);
    const std::vector<float> biases(ns * h, 0.0f);
    std::vector<simd::SliceHash> slices(ns);
    for (size_t s = 0; s < ns; ++s)
        slices[s] = {elem_off.data() + s * len, len,
                     v.data() + s * h * len, biases.data() + s * h, h};
    simd::PatchGrid grid;
    grid.images = 1;
    grid.rows = grid.cols = side;
    grid.pitch = pw;
    grid.imageStride = cin * plane;
    std::vector<uint64_t> sigs(ns * grid.count());
    const simd::Ops &ops = opsForArg(state.range(1));
    for (auto _ : state) {
        ops.sliceSignatures(x.data(), grid, slices.data(), ns, sigs.data());
        benchmark::DoNotOptimize(sigs.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(std::string(fire ? "fire8.C2" : "conv2.C1") + " " +
                   ops.name);
}
BENCHMARK(BM_SliceSignatures)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_ScatterBound(benchmark::State &state)
{
    // The accuracy bound's Σ λmax m term of one panel of a CifarNet
    // conv2-shaped im2col matrix (256 rows of 1600 columns, 16 noisy
    // prototypes), H = 4. Args: shape (0 = a C1 vertical slice, 256
    // rows of 25; 1 = a horizontal band, 1600 columns of 16) and
    // kernel (0 = dispatched, 1 = scalar oracle).
    const bool band = state.range(0) == 1;
    const size_t rows = 256, cols = 1600;
    Tensor x = redundantMatrix(rows, cols, 16, 7);
    Rng rng(8);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] += static_cast<float>(rng.normal(0.0, 0.1));
    const StridedItems items = band
                                   ? StridedItems{x.data(), cols, 16, 1, cols}
                                   : StridedItems{x.data(), rows, 25, cols, 1};
    const HashFamily family = HashFamily::random(4, items.length, rng);
    const ClusterResult clusters = clusterBySignature(items, family);
    const simd::Level restore = simd::activeLevel();
    if (state.range(1) == 1)
        (void)simd::setActiveLevel(simd::Level::Scalar);
    for (auto _ : state)
        benchmark::DoNotOptimize(clusterScatterBound(items, clusters));
    state.SetLabel(std::string(band ? "band" : "conv2.C1") + " " +
                   simd::ops().name);
    (void)simd::setActiveLevel(restore);
}
BENCHMARK(BM_ScatterBound)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_MaxPoolEval(benchmark::State &state)
{
    // CifarNet pool1's eval forward, 64 x 32 x 32 -> 16 x 16. Arg:
    // kernel (0 = dispatched, 1 = scalar oracle).
    Rng rng(7);
    const Tensor x = Tensor::randomNormal({1, 64, 32, 32}, rng);
    Tensor y({1, 64, 16, 16});
    const simd::Ops &ops = opsForArg(state.range(0));
    for (auto _ : state) {
        ops.maxPool2x2(x.data(), 64, 32, 32, 16, 16, y.data());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(ops.name);
}
BENCHMARK(BM_MaxPoolEval)->Arg(0)->Arg(1);

void
BM_RecoverRows(benchmark::State &state)
{
    // Row-outer vertical recovery of one image: every output row summed
    // across its slices' centroid rows. Args: shape (0 = CifarNet conv2,
    // 256 rows x 64 channels over 64 C1 slices with 10 clusters each;
    // 1 = Fire8 expand_3x3, 16 rows x 256 channels over 64 C2 slices
    // with 8 clusters each) and kernel (0 = dispatched, 1 = scalar
    // oracle).
    const bool fire = state.range(0) == 1;
    const size_t n = fire ? 16 : 256, m = fire ? 256 : 64, ns = 64;
    const size_t nc = fire ? 8 : 10;
    Rng rng(8);
    const Tensor yc = Tensor::randomNormal({ns * nc, m}, rng);
    std::vector<const float *> slices(ns);
    for (size_t k = 0; k < ns; ++k)
        slices[k] = yc.data() + k * nc * m;
    std::vector<uint32_t> ids(ns * n);
    for (uint32_t &id : ids)
        id = static_cast<uint32_t>(rng.uniformInt(nc));
    Tensor y({n, m});
    const simd::Ops &ops = opsForArg(state.range(1));
    for (auto _ : state) {
        ops.recoverRows(slices.data(), ids.data(), ns, n, m, y.data());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(std::string(fire ? "fire8" : "conv2") + " " + ops.name);
}
BENCHMARK(BM_RecoverRows)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_BatchNormEval(benchmark::State &state)
{
    // Eval BatchNorm of one image with running statistics. Args: shape
    // (0 = 64 channels @ 16x16, a Fire2 expand; 1 = 512 channels @ 4x4,
    // a Fire8 output) and kernel (0 = dispatched, 1 = scalar oracle).
    const bool late = state.range(0) == 1;
    const size_t channels = late ? 512 : 64, hw = late ? 16 : 256;
    Rng rng(9);
    const Tensor x = Tensor::randomNormal({channels * hw}, rng);
    const Tensor mean = Tensor::randomNormal({channels}, rng);
    const Tensor var = Tensor::full({channels}, 0.5f);
    const Tensor gamma = Tensor::randomNormal({channels}, rng);
    const Tensor beta = Tensor::randomNormal({channels}, rng);
    Tensor y({channels * hw});
    const simd::Ops &ops = opsForArg(state.range(1));
    for (auto _ : state) {
        ops.batchNormEval(x.data(), 1, channels, hw, mean.data(), var.data(),
                          1e-5f, gamma.data(), beta.data(), y.data());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(std::string(late ? "512x4x4" : "64x16x16") + " " +
                   ops.name);
}
BENCHMARK(BM_BatchNormEval)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_GemmNarrow(benchmark::State &state)
{
    // A GEMM narrower than 32 columns: Fire8's squeeze conv on its 4x4
    // planes, (64 x 384) x (384 x 16). Arg: kernel (0 = dispatched,
    // 1 = scalar oracle).
    const size_t m = 64, n = 16, k = 384;
    Rng rng(10);
    const Tensor a = Tensor::randomNormal({m, k}, rng);
    const Tensor b = Tensor::randomNormal({k, n}, rng);
    Tensor c({m, n});
    const simd::Ops &ops = opsForArg(state.range(0));
    for (auto _ : state) {
        ops.gemmF32(a.data(), b.data(), c.data(), m, n, k, k, n, n, false);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(ops.name);
}
BENCHMARK(BM_GemmNarrow)->Arg(0)->Arg(1);

void
BM_ExactGemmRedundant(benchmark::State &state)
{
    Tensor x = redundantMatrix(1024, 75, 8, 7);
    Rng rng(7);
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    Tensor y({1024, 64});
    for (auto _ : state) {
        gemm(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_ExactGemmRedundant);

void
BM_VerticalReuseRedundant(benchmark::State &state)
{
    Tensor x = redundantMatrix(1024, 75, 8, 7);
    Rng rng(7);
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    VerticalSlicing s = VerticalSlicing::plan(75, 25, 1);
    Rng frng(8);
    auto fams = randomVerticalFamilies(s, 75, 4, frng);
    for (auto _ : state) {
        Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_VerticalReuseRedundant);

void
BM_HorizontalReuseRedundant(benchmark::State &state)
{
    // Column-redundant input for the horizontal direction.
    Rng rng(9);
    Tensor protos = Tensor::randomNormal({8, 1024}, rng);
    Tensor x({1024, 75});
    for (size_t c = 0; c < 75; ++c) {
        size_t p = rng.uniformInt(8);
        for (size_t r = 0; r < 1024; ++r)
            x.at2(r, c) = protos.at2(p, r);
    }
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    HorizontalSlicing s = HorizontalSlicing::plan(1024, 256);
    Rng frng(10);
    auto fams = randomHorizontalFamilies(s, 1024, 4, frng);
    for (auto _ : state) {
        Tensor y = horizontalReuseMultiply(x, w, s, fams, nullptr, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_HorizontalReuseRedundant);

void
BM_Int8Matmul(benchmark::State &state)
{
    // CifarNet Conv2 shape through the quantized path.
    Rng rng(11);
    Tensor a = Tensor::randomNormal({256, 1600}, rng);
    Tensor b = Tensor::randomNormal({1600, 64}, rng);
    Int8Tensor qa = quantizeInt8(a);
    Int8Tensor qb = quantizeInt8(b);
    for (auto _ : state) {
        Tensor y = int8Matmul(qa, qb, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 256 * 1600 * 64);
}
BENCHMARK(BM_Int8Matmul);

void
BM_FcReuseSegment(benchmark::State &state)
{
    // FC segment reuse: batch 8, F = 1024 in 32-wide segments, O = 64.
    Rng rng(12);
    Tensor x = Tensor::randomNormal({8, 1024}, rng);
    Tensor w = Tensor::randomNormal({1024, 64}, rng);
    Tensor bias({64});
    HashFamily family = HashFamily::random(4, 32, rng);
    for (auto _ : state) {
        Tensor y = fcReuseForward(x, w, bias, 32, family, nullptr,
                                  nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FcReuseSegment);

void
BM_FaultGateDisarmed(benchmark::State &state)
{
    // The disarmed fault gate on a hot path: must be one relaxed
    // atomic load, indistinguishable from the bare loop.
    uint64_t acc = 0;
    for (auto _ : state) {
        if (faultpoint::anyArmed())
            acc += 1;
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_FaultGateDisarmed);

void
BM_RecoveryDomainNoFault(benchmark::State &state)
{
    // The serve worker's per-request containment boundary with no
    // fault firing: arming the domain is two thread-local bumps and
    // entering the try block is free (zero-cost exceptions), so this
    // must stay within noise of the bare loop — containment is paid
    // only when a panic actually throws.
    uint64_t acc = 0;
    for (auto _ : state) {
        RecoveryDomain domain;
        try {
            acc += 1;
        } catch (const PanicException &) {
            acc = 0;
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_RecoveryDomainNoFault);

void
BM_GuardedReuseConv(benchmark::State &state)
{
    // The guarded conv algorithm vs its unguarded inner path. Arg:
    // 0 = unguarded baseline, 1 = guard installed but disabled (the
    // "off-path" whose overhead must stay within noise of 0, per the
    // fault-gate criterion), 2 = guard enabled (includes the sampled
    // verification GEMM rows).
    ConvGeometry geom;
    geom.batch = 1;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.stride = 1;
    geom.pad = 2;
    Tensor x = redundantMatrix(1024, 75, 8, 7);
    Rng rng(7);
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    ReusePattern p = ReusePattern::conventional(geom, 4);

    GuardConfig cfg;
    cfg.enabled = state.range(0) != 0;
    cfg.marginFactor = 1e9; // stay on the full-reuse rung
    GuardedReuseConvAlgo guarded(p, cfg, HashMode::Random, 7);
    guarded.fit(x, geom);
    ReuseConvAlgo plain(p, HashMode::Random, 7);
    plain.fit(x, geom);

    for (auto _ : state) {
        Tensor y = state.range(0) == 0
                       ? plain.multiply(x, w, geom, nullptr)
                       : guarded.multiply(x, w, geom, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_GuardedReuseConv)->Arg(0)->Arg(1)->Arg(2);

/** Delegates multiply() and declines multiplyNchw(), so a conv running
 *  it always builds the im2col matrix. */
class Im2colOnly : public ConvAlgo
{
  public:
    explicit Im2colOnly(std::shared_ptr<ConvAlgo> inner)
        : inner_(std::move(inner))
    {
    }

    Tensor
    multiply(const Tensor &x, const Tensor &w, const ConvGeometry &geom,
             CostLedger *ledger) override
    {
        return inner_->multiply(x, w, geom, ledger);
    }

    std::string describe() const override { return inner_->describe(); }

  private:
    std::shared_ptr<ConvAlgo> inner_;
};

void
BM_GuardedConvEval(benchmark::State &state)
{
    // A whole Conv2D eval forward (bias and layout fold included) with
    // a guarded one-tile pattern, H = 4, on redundant synthetic images.
    // Args: shape (0 = CifarNet conv2, 64 -> 64 @ 16x16 5x5, C1;
    // 1 = Fire4 expand_3x3, 32 -> 128 @ 8x8 3x3, C1; 2 = Fire8
    // expand_3x3, 64 -> 256 @ 4x4 3x3, C2, where per-slice costs
    // dominate) and path (0 = fused from NCHW, 1 = im2col through a
    // pass-through wrapper).
    const int64_t shape = state.range(0);
    const bool fire = shape != 0;
    const size_t cin = shape == 1 ? 32 : 64;
    const size_t cout = shape == 0 ? 64 : shape == 1 ? 128 : 256;
    const size_t k = fire ? 3 : 5;
    const size_t side = shape == 0 ? 16 : shape == 1 ? 8 : 4;
    Rng rng(5);
    Conv2D conv("conv", cin, cout, k, 1, k / 2, rng);
    SyntheticConfig cfg;
    cfg.numSamples = 3;
    cfg.redundancy = 0.8f;
    cfg.noiseStddev = 0.03f;
    const Dataset data = makeSyntheticCifar(cfg);
    // Tile the 3 RGB planes (subsampled to the layer's side) over cin
    // channels, so the input carries the images' redundancy.
    auto input = [&](std::vector<size_t> idx) {
        const Tensor img = data.gatherImages(idx);
        Tensor x({idx.size(), cin, side, side});
        const size_t step = 32 / side;
        for (size_t b = 0; b < idx.size(); ++b)
            for (size_t c = 0; c < cin; ++c)
                for (size_t y = 0; y < side; ++y)
                    for (size_t xx = 0; xx < side; ++xx)
                        x.at4(b, c, y, xx) =
                            img.at4(b, c % 3, y * step, xx * step);
        return x;
    };
    const Tensor sample = input({0, 1});
    const Tensor x = input({2});
    const ConvGeometry fit_geom = conv.geometry(sample.shape());
    ReusePattern p;
    p.granularity = k * k;
    p.numHashes = 4;
    if (shape == 2)
        p.columnOrder = ColumnOrder::PixelMajor;
    GuardConfig gcfg;
    gcfg.marginFactor = 1e9; // time rung 0 on both paths
    auto guarded = std::make_shared<GuardedReuseConvAlgo>(
        p, gcfg, HashMode::Learned, 99);
    guarded->fit(im2col(sample, fit_geom), fit_geom);
    if (state.range(1) == 0)
        conv.setAlgo(guarded);
    else
        conv.setAlgo(std::make_shared<Im2colOnly>(guarded));
    // The first forward derives the guard's error budget for this
    // stream (the accuracy bound's power iterations on the fit sample,
    // tens of ms; the guard.budget span); left in the timed loop it
    // would dominate short runs and swing with the iteration count.
    (void)conv.forward(x, false);
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    const char *names[] = {"cifarnet.conv2", "fire4.expand_3x3",
                           "fire8.expand_3x3"};
    state.SetLabel(std::string(names[shape]) +
                   (state.range(1) == 0 ? " fused" : " im2col"));
}
BENCHMARK(BM_GuardedConvEval)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

void
BM_ProfGateDisabled(benchmark::State &state)
{
    // A ProfSpan with the profiler off (the default): construction and
    // destruction must reduce to one relaxed atomic load, matching the
    // fault gate criterion.
    uint64_t acc = 0;
    for (auto _ : state) {
        profiler::ProfSpan span("bench.gate");
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ProfGateDisabled);

void
BM_EventlogGateDisabled(benchmark::State &state)
{
    // eventlog::record() with the journal off (the default): the
    // inline gate must reduce the whole call to one relaxed atomic
    // load, matching the fault/profiler gate criterion.
    uint64_t acc = 0;
    for (auto _ : state) {
        eventlog::record(eventlog::Type::KernelReuse, 0, 0.5, 64.0, 0.0,
                         8);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_EventlogGateDisabled);

void
BM_RtraceGateDisabled(benchmark::State &state)
{
    // A rtrace::RequestScope with request tracing off (the default):
    // construction and destruction must reduce to one relaxed atomic
    // load, matching the fault/profiler/eventlog gate criterion.
    uint64_t acc = 0;
    for (auto _ : state) {
        rtrace::RequestScope scope(acc);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_RtraceGateDisabled);

void
BM_AuditGateDisabled(benchmark::State &state)
{
    // audit::recordForward() with the audit disarmed (the default):
    // the inline gate must reduce the whole hook to one relaxed atomic
    // load, matching the fault/profiler/eventlog gate criterion.
    ReuseStats stats;
    stats.totalVectors = 256;
    stats.totalCentroids = 32;
    uint64_t acc = 0;
    for (auto _ : state) {
        audit::recordForward(acc, stats);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_AuditGateDisabled);

void
BM_CanaryGateDisabled(benchmark::State &state)
{
    // audit::recordCanary() with the canary disarmed (the default,
    // rate 0): one relaxed atomic load of the rate bit-pattern.
    uint64_t acc = 0;
    for (auto _ : state) {
        audit::recordCanary(acc, 0.1, 1.0, 8, false);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_CanaryGateDisabled);

void
BM_SyntheticCifarGeneration(benchmark::State &state)
{
    SyntheticConfig cfg;
    cfg.numSamples = 16;
    for (auto _ : state) {
        Dataset d = makeSyntheticCifar(cfg);
        benchmark::DoNotOptimize(d.images.data());
    }
}
BENCHMARK(BM_SyntheticCifarGeneration);

/** Nominal BM_HostReference time. main() reports every kernel at the
 *  host speed that runs the reference in this time; the value only
 *  sets the unit. */
constexpr double kHostReferenceMs = 0.05;

/** Buffers of the host reference work: 256 KiB of floats plus their
 *  gather indices, L2-resident on the hosts this runs on. */
struct ReferenceData
{
    std::vector<float> a, b;
    std::vector<uint32_t> idx;

    ReferenceData() : a(1 << 16), b(1 << 16), idx(1 << 16)
    {
        Rng rng(1);
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] = rng.uniformFloat(-1.0f, 1.0f);
            b[i] = rng.uniformFloat(-1.0f, 1.0f);
            idx[i] = static_cast<uint32_t>(rng.uniformInt(b.size()));
        }
    }
};

void
BM_HostReference(benchmark::State &state)
{
    // Fixed work written here, not in the library, so no change to the
    // code under test moves it: a streaming multiply-add and a gather,
    // the two access patterns of the kernels above. main() divides
    // every kernel's time by this one's to report at a fixed host speed.
    static const ReferenceData d;
    for (auto _ : state) {
        float acc = 0.0f;
        for (size_t i = 0; i < d.a.size(); ++i)
            acc += d.a[i] * d.b[d.idx[i]];
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_HostReference);

/**
 * Console reporter that additionally captures each run's per-iteration
 * real time, so the BENCH record carries machine-comparable
 * "<name>Ms" keys (name sanitized: '/' and ':' become '_'; main()
 * scales them to a fixed host speed, see BM_HostReference) and
 * bench_diff can gate kernel latencies across PRs. Under
 * --benchmark_repetitions a key holds the fastest repetition: load from
 * other processes on a shared host only ever adds time, so the minimum
 * over repetitions spread through the run moves far less than any one
 * run (or their median) does.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            // Benches here use the default ns time unit; /1e6 matches
            // how baseline keys were derived from the JSON reporter's
            // real_time field.
            auto [it, fresh] =
                samples_.try_emplace(sanitize(run.benchmark_name()));
            if (fresh)
                order_.push_back(it->first);
            it->second.push_back(run.GetAdjustedRealTime() / 1e6);
        }
        ConsoleReporter::ReportRuns(reports);
    }

    /** (key, fastest repetition's ms) per benchmark, in first-run
     *  order. */
    std::vector<std::pair<std::string, double>>
    fastestMs() const
    {
        std::vector<std::pair<std::string, double>> out;
        for (const std::string &name : order_) {
            const std::vector<double> &v = samples_.at(name);
            out.emplace_back(name, *std::min_element(v.begin(), v.end()));
        }
        return out;
    }

  private:
    static std::string
    sanitize(std::string name)
    {
        for (char &c : name)
            if (c == '/' || c == ':')
                c = '_';
        return name;
    }

    std::map<std::string, std::vector<double>> samples_;
    std::vector<std::string> order_;
};

/** Average wall-clock milliseconds of @p fn over @p reps calls. */
template <typename F>
double
timeMs(F &&fn, int reps)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           reps;
}

/**
 * In-process scalar-vs-dispatched speedups of the three dispatched
 * kernel families, recorded as HigherIsBetter keys. Skipped (no keys)
 * when dispatch already resolved to scalar — a speedup of a kernel
 * against itself is noise, not signal.
 */
void
recordDispatchSpeedups(genreuse::bench::BenchJson &bj)
{
    const simd::Level best = simd::activeLevel();
    bj.meta("simdLevel", simd::levelName(best));
    if (best == simd::Level::Scalar)
        return;

    Rng rng(21);
    Tensor a = Tensor::randomNormal({256, 1600}, rng);
    Tensor b = Tensor::randomNormal({1600, 64}, rng);
    Tensor c({256, 64});
    Int8Tensor qa = quantizeInt8(a);
    Int8Tensor qb = quantizeInt8(b);
    std::vector<int32_t> qc(256 * 64);
    const size_t count = 1 << 15, l = 25, h = 8;
    Tensor proj = Tensor::randomNormal({count, h}, rng);
    std::vector<float> biases(h, 0.0f);
    std::vector<uint64_t> sigs(count);
    (void)l;

    struct Timed
    {
        const char *key;
        std::function<void()> fn;
        int reps;
    };
    const Timed kernels[] = {
        {"gemmF32DispatchSpeedup",
         [&] {
             simd::ops().gemmF32(a.data(), b.data(), c.data(), 256, 64,
                                 1600, 1600, 64, 64, false);
         },
         5},
        {"gemmInt8DispatchSpeedup",
         [&] {
             simd::ops().gemmInt8(qa.data.data(), qb.data.data(),
                                  qc.data(), 256, 64, 1600, 1600, 64,
                                  64);
         },
         5},
        {"signProjectDispatchSpeedup",
         [&] {
             simd::ops().signProject(proj.data(), biases.data(), count,
                                     h, sigs.data());
         },
         50},
    };
    for (const Timed &kr : kernels) {
        (void)simd::setActiveLevel(simd::Level::Scalar);
        kr.fn(); // warm
        const double scalar_ms = timeMs(kr.fn, kr.reps);
        (void)simd::setActiveLevel(best);
        kr.fn();
        const double simd_ms = timeMs(kr.fn, kr.reps);
        if (simd_ms > 0.0)
            bj.record(kr.key, scalar_ms / simd_ms);
    }
}

} // namespace

// Hand-rolled BENCHMARK_MAIN() so the binary also drops a BENCH_*.json
// record into the suite directory: per-kernel wall-clock "<name>Ms"
// keys captured from the reporter, plus scalar-vs-dispatch speedup
// keys for the SIMD kernel layer. google-benchmark's own reporters
// still work (--benchmark_format=json for the full machine-readable
// dump).
int
main(int argc, char **argv)
{
    genreuse::bench::BenchJson bj("micro_kernels");
    bj.meta("reporter",
            "google-benchmark; rerun with --benchmark_format=json for "
            "the full per-kernel dump");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    bj.record("benchmarksRun",
              static_cast<double>(
                  benchmark::RunSpecifiedBenchmarks(&reporter)));
    // Kernel times at a fixed host speed: scaled so BM_HostReference
    // takes kHostReferenceMs. Load from other tenants of a shared host
    // slows whole runs by up to 2x; the scale takes most of that out.
    const auto fastest = reporter.fastestMs();
    double reference_ms = 0.0;
    for (const auto &[name, ms] : fastest)
        if (name == "BM_HostReference")
            reference_ms = ms;
    const double scale =
        reference_ms > 0.0 ? kHostReferenceMs / reference_ms : 1.0;
    bj.meta("hostReferenceMs", reference_ms);
    for (const auto &[name, ms] : fastest)
        if (name != "BM_HostReference")
            bj.record(name + "Ms", ms * scale);
    recordDispatchSpeedups(bj);
    benchmark::Shutdown();
    return 0;
}
