/**
 * @file
 * The fault matrix: every registered fault point is armed in turn and
 * each reuse kernel (vertical, horizontal, FC) plus the quantizer and
 * the memory model must either succeed with a documented fallback or
 * return a clean Status — never abort. Also covers the GENREUSE_FAULT
 * spec parser, the disarmed-gate overhead, and the Table-4-style OOD
 * requirement that exact fallbacks match the exact baseline
 * bit-for-bit.
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>

#include "common/faultpoint.h"
#include "common/streamtag.h"
#include "core/fc_reuse.h"
#include "core/guard.h"
#include "core/horizontal_reuse.h"
#include "core/reorder.h"
#include "core/vertical_reuse.h"
#include "lsh/clustering.h"
#include "mcu/memory_model.h"
#include "quant/int8_quant.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

/** Every test starts and ends disarmed with zeroed guard counters. */
struct FaultSandbox
{
    FaultSandbox()
    {
        faultpoint::disarm();
        guard::reset();
    }
    ~FaultSandbox()
    {
        faultpoint::disarm();
        guard::reset();
    }
};

bool
allFinite(const Tensor &t)
{
    for (size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t.data()[i]))
            return false;
    return true;
}

TEST(FaultPoint, NamesRoundTrip)
{
    FaultSandbox sandbox;
    const auto &names = faultpoint::allFaultNames();
    ASSERT_EQ(names.size(),
              static_cast<size_t>(faultpoint::Fault::NumFaults));
    for (const std::string &name : names) {
        Expected<faultpoint::Fault> f = faultpoint::faultByName(name);
        ASSERT_TRUE(f.ok()) << name;
        EXPECT_STREQ(faultpoint::faultName(*f), name.c_str());
    }
    Expected<faultpoint::Fault> bad = faultpoint::faultByName("nope");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
}

TEST(FaultPoint, ArmSpecParsesNameAndSeed)
{
    FaultSandbox sandbox;
    EXPECT_TRUE(faultpoint::armSpec("cluster_collapse:7").ok());
    EXPECT_TRUE(
        faultpoint::active(faultpoint::Fault::ClusterCollapse));
    EXPECT_EQ(faultpoint::seed(), 7u);

    EXPECT_TRUE(faultpoint::armSpec("nan_activation").ok());
    EXPECT_TRUE(faultpoint::active(faultpoint::Fault::NanActivation));
    EXPECT_EQ(faultpoint::seed(), 1u);

    EXPECT_FALSE(faultpoint::armSpec("nan_activation:abc").ok());
    EXPECT_FALSE(faultpoint::armSpec("not_a_fault").ok());
    EXPECT_FALSE(faultpoint::armSpec("not_a_fault:3").ok());
}

TEST(FaultPoint, ArmSpecParsesStreamTarget)
{
    FaultSandbox sandbox;
    // Unscoped spec targets every stream.
    ASSERT_TRUE(faultpoint::armSpec("nan_activation:5").ok());
    EXPECT_EQ(faultpoint::targetStream(), -1);

    ASSERT_TRUE(faultpoint::armSpec("nan_activation@2").ok());
    EXPECT_EQ(faultpoint::targetStream(), 2);
    EXPECT_EQ(faultpoint::seed(), 1u); // seed still defaults

    ASSERT_TRUE(faultpoint::armSpec("nan_activation:5@3").ok());
    EXPECT_EQ(faultpoint::targetStream(), 3);
    EXPECT_EQ(faultpoint::seed(), 5u);

    EXPECT_FALSE(faultpoint::armSpec("nan_activation@").ok());
    EXPECT_FALSE(faultpoint::armSpec("nan_activation@abc").ok());
    EXPECT_FALSE(faultpoint::armSpec("nan_activation@70000").ok());

    // disarm clears the stream filter too.
    faultpoint::disarm();
    EXPECT_EQ(faultpoint::targetStream(), -1);
}

TEST(FaultPoint, StreamTargetGatesActiveOnTheThreadsStream)
{
    FaultSandbox sandbox;
    faultpoint::arm(faultpoint::Fault::NanActivation, 1, /*stream=*/2);
    // No stream bound: the fault stays quiet.
    EXPECT_FALSE(faultpoint::active(faultpoint::Fault::NanActivation));
    {
        streamtag::Scoped wrong(1);
        EXPECT_FALSE(
            faultpoint::active(faultpoint::Fault::NanActivation));
    }
    {
        streamtag::Scoped right(2);
        EXPECT_TRUE(
            faultpoint::active(faultpoint::Fault::NanActivation));
    }
    // Unscoped arming fires on every stream, as before.
    faultpoint::arm(faultpoint::Fault::NanActivation, 1);
    EXPECT_TRUE(faultpoint::active(faultpoint::Fault::NanActivation));
    {
        streamtag::Scoped any(7);
        EXPECT_TRUE(
            faultpoint::active(faultpoint::Fault::NanActivation));
    }
}

TEST(FaultPoint, ArmSpecParsesMultiEventSchedules)
{
    FaultSandbox sandbox;
    ASSERT_TRUE(
        faultpoint::armSpec("nan_activation@2:17,corrupt_cluster_ids@3:40")
            .ok());
    EXPECT_TRUE(faultpoint::anyArmed());
    EXPECT_EQ(faultpoint::targetStream(faultpoint::Fault::NanActivation),
              2);
    EXPECT_EQ(
        faultpoint::targetStream(faultpoint::Fault::CorruptClusterIds),
        3);
    EXPECT_EQ(faultpoint::seed(faultpoint::Fault::NanActivation), 1u);
    // Unlisted faults stay disarmed.
    EXPECT_EQ(faultpoint::targetStream(faultpoint::Fault::WorkerPanic),
              -1);
    EXPECT_FALSE(faultpoint::active(faultpoint::Fault::WorkerPanic));

    // Per-event seeds combine with stream schedules.
    ASSERT_TRUE(
        faultpoint::armSpec("worker_panic:9@1,cluster_collapse:4").ok());
    EXPECT_EQ(faultpoint::seed(faultpoint::Fault::WorkerPanic), 9u);
    EXPECT_EQ(faultpoint::targetStream(faultpoint::Fault::WorkerPanic), 1);
    EXPECT_EQ(faultpoint::seed(faultpoint::Fault::ClusterCollapse), 4u);
    EXPECT_EQ(
        faultpoint::targetStream(faultpoint::Fault::ClusterCollapse), -1);

    faultpoint::disarm();
    EXPECT_FALSE(faultpoint::anyArmed());
    EXPECT_EQ(faultpoint::targetStream(faultpoint::Fault::WorkerPanic),
              -1);
}

TEST(FaultPoint, ScheduledEventFiresAtExactlyTheAtThCheck)
{
    FaultSandbox sandbox;
    // ":3" = fire at the 3rd eligible check on stream 1, then never
    // again — the deterministic "poison the N-th request" primitive.
    ASSERT_TRUE(faultpoint::armSpec("worker_panic@1:3").ok());
    streamtag::Scoped stream(1);
    EXPECT_FALSE(faultpoint::active(faultpoint::Fault::WorkerPanic));
    EXPECT_FALSE(faultpoint::active(faultpoint::Fault::WorkerPanic));
    EXPECT_TRUE(faultpoint::active(faultpoint::Fault::WorkerPanic));
    EXPECT_FALSE(faultpoint::active(faultpoint::Fault::WorkerPanic));
    EXPECT_FALSE(faultpoint::active(faultpoint::Fault::WorkerPanic));
}

TEST(FaultPoint, ScheduledEventCountsOnlyEligibleChecks)
{
    FaultSandbox sandbox;
    ASSERT_TRUE(faultpoint::armSpec("nan_activation@2:2").ok());
    {
        // Checks on the wrong stream are not eligible and must not
        // advance the schedule.
        streamtag::Scoped wrong(1);
        for (int i = 0; i < 5; ++i)
            EXPECT_FALSE(
                faultpoint::active(faultpoint::Fault::NanActivation));
    }
    {
        streamtag::Scoped right(2);
        EXPECT_FALSE(
            faultpoint::active(faultpoint::Fault::NanActivation));
        EXPECT_TRUE(
            faultpoint::active(faultpoint::Fault::NanActivation));
        EXPECT_FALSE(
            faultpoint::active(faultpoint::Fault::NanActivation));
    }
}

TEST(FaultPoint, ArmSpecRejectsBadSchedules)
{
    FaultSandbox sandbox;
    // A rejected schedule must leave nothing half-armed.
    for (const char *bad :
         {"", ",", "nan_activation,", ",nan_activation",
          "nan_activation,,worker_panic", "nan_activation,nope",
          "nan_activation@2:0", "nan_activation@2:abc",
          "nan_activation@2:", "worker_panic:1:2"}) {
        SCOPED_TRACE(bad);
        Status s = faultpoint::armSpec(bad);
        EXPECT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
        EXPECT_FALSE(faultpoint::anyArmed());
    }
}

TEST(FaultPoint, ScopedDisarms)
{
    FaultSandbox sandbox;
    {
        faultpoint::Scoped scoped(faultpoint::Fault::ClusterEmpty, 3);
        EXPECT_TRUE(faultpoint::anyArmed());
        EXPECT_TRUE(faultpoint::active(faultpoint::Fault::ClusterEmpty));
    }
    EXPECT_FALSE(faultpoint::anyArmed());
}

/**
 * The fault matrix itself. Every kernel must complete under every
 * fault; where the cluster table is rejected the panel falls back to
 * exact GEMM, so for the table-corrupting faults the output must match
 * the exact baseline (same accumulation order, loose epsilon only for
 * the per-panel vs whole-matrix GEMM split).
 */
TEST(FaultMatrix, ReuseKernelsSurviveEveryFault)
{
    for (const std::string &name : faultpoint::allFaultNames()) {
        SCOPED_TRACE(name);
        FaultSandbox sandbox;
        ASSERT_TRUE(faultpoint::armSpec(name + ":5").ok());

        Rng rng(17);
        // Vertical reuse.
        {
            Tensor x = test::redundantRows(48, 20, 4, rng, 0.01f);
            Tensor w = Tensor::randomNormal({20, 6}, rng);
            VerticalSlicing s = VerticalSlicing::plan(20, 10, 1);
            auto fams = randomVerticalFamilies(s, 20, 8, rng);
            ReuseStats stats;
            Tensor y =
                verticalReuseMultiply(x, w, s, fams, nullptr, &stats);
            ASSERT_EQ(y.shape(), Shape({48, 6}));
            EXPECT_TRUE(allFinite(y));
            if (name == "corrupt_cluster_ids" || name == "cluster_empty") {
                // Table rejected -> per-slice exact GEMM.
                EXPECT_LT(maxAbsDiff(y, matmul(x, w)), 1e-4f);
                EXPECT_GE(guard::snapshot().kernelFallbacks, 1u);
            }
        }
        // Horizontal reuse.
        {
            Tensor x = test::redundantCols(24, 30, 5, rng, 0.01f);
            Tensor w = Tensor::randomNormal({30, 4}, rng);
            HorizontalSlicing s = HorizontalSlicing::plan(24, 12);
            auto fams = randomHorizontalFamilies(s, 24, 8, rng);
            Tensor y =
                horizontalReuseMultiply(x, w, s, fams, nullptr, nullptr);
            ASSERT_EQ(y.shape(), Shape({24, 4}));
            EXPECT_TRUE(allFinite(y));
            if (name == "corrupt_cluster_ids" || name == "cluster_empty") {
                EXPECT_LT(maxAbsDiff(y, matmul(x, w)), 1e-4f);
            }
        }
        // FC segment reuse.
        {
            Tensor x = Tensor::randomNormal({3, 32}, rng);
            Tensor w = Tensor::randomNormal({32, 5}, rng);
            Tensor bias({5});
            HashFamily fam = HashFamily::random(6, 8, rng);
            Tensor y = fcReuseForward(x, w, bias, 8, fam, nullptr,
                                      nullptr);
            ASSERT_EQ(y.shape(), Shape({3, 5}));
            EXPECT_TRUE(allFinite(y));
            if (name == "corrupt_cluster_ids" || name == "cluster_empty") {
                EXPECT_LT(maxAbsDiff(y, matmul(x, w)), 1e-4f);
            }
        }
    }
}

TEST(FaultMatrix, ClusterCollapseYieldsOneClusterValidTable)
{
    FaultSandbox sandbox;
    faultpoint::Scoped scoped(faultpoint::Fault::ClusterCollapse, 9);
    Rng rng(3);
    Tensor x = Tensor::randomNormal({16, 6}, rng);
    StridedItems items{x.data(), 16, 6, 6, 1};
    HashFamily fam = HashFamily::random(4, 6, rng);
    ClusterResult r = clusterBySignature(items, fam, nullptr);
    EXPECT_EQ(r.numClusters(), 1u);
    EXPECT_TRUE(clusterTableValid(r));
}

TEST(FaultMatrix, CorruptIdsAndEmptyClusterAreDetected)
{
    FaultSandbox sandbox;
    Rng rng(4);
    Tensor x = test::redundantRows(32, 8, 4, rng, 0.0f);
    StridedItems items{x.data(), 32, 8, 8, 1};
    HashFamily fam = HashFamily::random(4, 8, rng);

    {
        faultpoint::Scoped scoped(faultpoint::Fault::CorruptClusterIds,
                                  11);
        ClusterResult r = clusterBySignature(items, fam, nullptr);
        EXPECT_FALSE(clusterTableValid(r));
    }
    {
        faultpoint::Scoped scoped(faultpoint::Fault::ClusterEmpty, 11);
        ClusterResult r = clusterBySignature(items, fam, nullptr);
        EXPECT_FALSE(clusterTableValid(r));
    }
    ClusterResult clean = clusterBySignature(items, fam, nullptr);
    EXPECT_TRUE(clusterTableValid(clean));
}

TEST(FaultMatrix, VerticalFallbackSlicesEqualSliceByExactGemm)
{
    // Every table is corrupt, so every slice falls back to exact GEMM.
    // The row-outer recovery must reproduce accumulating each slice's
    // exact product into y in slice order, byte for byte — including a
    // slice wider than one GEMM k-block, and with gathered weight rows.
    FaultSandbox sandbox;
    Rng rng(5);
    const size_t n = 40, din = 600, m = 9;
    Tensor x = Tensor::randomNormal({n, din}, rng);
    Tensor w = Tensor::randomNormal({din, m}, rng);
    // First half: even rows ascending (slices read W in place at
    // stride 2); second half: odd rows descending (slices gather).
    std::vector<uint32_t> perm(din);
    for (size_t c = 0; c < din / 2; ++c)
        perm[c] = static_cast<uint32_t>(2 * c);
    for (size_t c = din / 2; c < din; ++c)
        perm[c] = static_cast<uint32_t>(2 * (din - 1 - c) + 1);
    Tensor w_perm = permuteRows(w, perm);
    for (size_t l : {size_t(300), size_t(25)}) {
        VerticalSlicing s = VerticalSlicing::plan(din, l, 1);
        auto fams = randomVerticalFamilies(s, din, 4, rng);
        Tensor ref({n, m});
        for (size_t k = 0; k < s.numSlices; ++k)
            gemmRaw(x.data() + k * l, w_perm.data() + k * l * m, ref.data(),
                    n, m, s.width(k, din), din, m, m, true);

        faultpoint::Scoped scoped(faultpoint::Fault::ClusterEmpty, 3);
        Tensor y, y_gathered;
        verticalReuseMultiplyInto(x, w_perm, s, fams, nullptr, nullptr, y);
        verticalReuseMultiplyInto(x, w, s, fams, nullptr, nullptr,
                                  y_gathered, perm.data());
        EXPECT_EQ(std::memcmp(y.data(), ref.data(), ref.size() * 4), 0)
            << "L=" << l;
        EXPECT_EQ(std::memcmp(y_gathered.data(), ref.data(),
                              ref.size() * 4),
                  0)
            << "L=" << l;
    }
}

TEST(FaultMatrix, SramExhaustedReportsZeroCapacityAndDowngrades)
{
    FaultSandbox sandbox;
    MemoryEstimate est;
    est.layers.push_back({"conv1", 1024, 512, 512, 256});
    McuSpec board = McuSpec::stm32f469i();
    ASSERT_TRUE(est.fits(board));
    EXPECT_EQ(deployRung(est, board), GuardRung::FullReuse);

    faultpoint::Scoped scoped(faultpoint::Fault::SramExhausted);
    EXPECT_FALSE(est.fits(board));
    FitReport r = est.diagnose(board);
    EXPECT_EQ(r.sramCapacity, 0u);
    EXPECT_FALSE(r.sramFits());
    EXPECT_TRUE(r.flashFits());
    EXPECT_EQ(r.sramShortfall(), r.sramRequired);
    EXPECT_NE(r.describe().find("SRAM short by"), std::string::npos);

    EXPECT_EQ(deployRung(est, board), GuardRung::ExactFallback);
    EXPECT_EQ(guard::snapshot().deployDowngrades, 1u);
}

TEST(FaultMatrix, ZeroQuantScaleSurfacesAsStatusNotAbort)
{
    FaultSandbox sandbox;
    Rng rng(5);
    Tensor t = Tensor::randomNormal({4, 4}, rng);
    ASSERT_TRUE(tryChooseQuantParams(t).ok());

    faultpoint::Scoped scoped(faultpoint::Fault::ZeroQuantScale);
    Expected<QuantParams> p = tryChooseQuantParams(t);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::NumericFault);

    Expected<Int8Tensor> q = tryQuantizeInt8(t);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), ErrorCode::NumericFault);
}

TEST(FaultMatrix, NonFiniteCalibrationIsANumericFault)
{
    FaultSandbox sandbox;
    Tensor t({2, 2}, {1.0f, 2.0f,
                      std::numeric_limits<float>::quiet_NaN(), 4.0f});
    Expected<QuantParams> p = tryChooseQuantParams(t);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::NumericFault);

    Expected<Int8Tensor> q =
        tryQuantizeInt8(t, QuantParams{0.0f, 0});
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), ErrorCode::InvalidArgument);
}

TEST(FaultPoint, NegligibleOverheadWhenDisarmed)
{
    // The disarmed gate is one relaxed atomic load, mirroring the
    // trace gate's zero-overhead guarantee (same loose 20x bound so
    // the test never flakes while still catching an accidental lock).
    FaultSandbox sandbox;
    const int iters = 2'000'000;

    auto timeRun = [&](auto &&body) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            body(i);
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    volatile uint64_t acc = 0;
    double base = timeRun(
        [&](int i) { acc = acc + static_cast<uint64_t>(i); });
    double off = timeRun([&](int i) {
        acc = acc + static_cast<uint64_t>(i);
        if (faultpoint::anyArmed())
            acc = acc + 1;
    });
    EXPECT_LT(off, base * 20.0 + 0.05);
}

} // namespace
} // namespace genreuse
