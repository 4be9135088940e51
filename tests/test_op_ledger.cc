/**
 * @file
 * Tests for the op-count reporting path (src/common/op_ledger):
 * reportOps() into an attached ledger, a CostLedger adopting a plain
 * ledger, and the zero-overhead guarantee when no ledger is attached.
 * OpCounts/CostLedger arithmetic is covered in test_mcu.
 */

#include <chrono>
#include <gtest/gtest.h>

#include "common/op_ledger.h"
#include "mcu/cost_model.h"

namespace genreuse {
namespace {

OpCounts
someOps()
{
    OpCounts ops;
    ops.macs = 100;
    ops.elemMoves = 20;
    ops.aluOps = 3;
    ops.tableOps = 1;
    return ops;
}

TEST(OpLedger, ReportOpsFillsAttachedSink)
{
    OpLedger sink;
    reportOps(&sink, Stage::Gemm, someOps());
    EXPECT_EQ(sink.stage(Stage::Gemm).macs, 100u);
    reportOps(nullptr, Stage::Gemm, someOps()); // no sink: dropped
    EXPECT_EQ(sink.total().macs, 100u);
}

TEST(OpLedger, CostLedgerAdoptsOpLedger)
{
    OpLedger plain;
    plain.add(Stage::Gemm, someOps());
    CostLedger priced(plain);
    EXPECT_TRUE(priced == plain);
    CostModel model(McuSpec::stm32f469i());
    EXPECT_GT(priced.totalMs(model), 0.0);
    EXPECT_NEAR(priced.totalMs(model),
                model.milliseconds(plain.total()), 1e-12);
}

TEST(OpLedger, NegligibleOverheadWithoutSink)
{
    // reportOps with no sink must stay within noise of a pure loop:
    // one null check per call. The bound is deliberately loose (20x) so
    // the test never flakes on a busy machine while still catching an
    // accidental mutex or allocation on that path (those cost 100x+).
    const int iters = 2'000'000;
    OpCounts ops = someOps();

    auto timeRun = [&](auto &&body) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            body(i);
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    volatile uint64_t guard = 0;
    double base = timeRun(
        [&](int i) { guard = guard + static_cast<uint64_t>(i); });
    double off = timeRun([&](int i) {
        guard = guard + static_cast<uint64_t>(i);
        reportOps(nullptr, Stage::Gemm, ops);
    });
    EXPECT_LT(off, base * 20.0 + 0.05);
}

} // namespace
} // namespace genreuse
