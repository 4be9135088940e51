#include "op_ledger.h"

#include "logging.h"

namespace genreuse {

OpCounts &
OpCounts::operator+=(const OpCounts &o)
{
    macs += o.macs;
    elemMoves += o.elemMoves;
    aluOps += o.aluOps;
    tableOps += o.tableOps;
    return *this;
}

OpCounts
OpCounts::operator+(const OpCounts &o) const
{
    OpCounts r = *this;
    r += o;
    return r;
}

bool
OpCounts::operator==(const OpCounts &o) const
{
    return macs == o.macs && elemMoves == o.elemMoves &&
           aluOps == o.aluOps && tableOps == o.tableOps;
}

bool
OpCounts::isZero() const
{
    return macs == 0 && elemMoves == 0 && aluOps == 0 && tableOps == 0;
}

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Transformation:
        return "Transformation";
      case Stage::Clustering:
        return "Clustering";
      case Stage::Gemm:
        return "GEMM";
      case Stage::Recovering:
        return "Recovering";
      default:
        return "?";
    }
}

void
OpLedger::add(Stage stage, const OpCounts &ops)
{
    size_t i = static_cast<size_t>(stage);
    GENREUSE_REQUIRE(i < static_cast<size_t>(Stage::NumStages),
                     "bad stage index");
    stages_[i] += ops;
}

void
OpLedger::merge(const OpLedger &other)
{
    for (size_t i = 0; i < static_cast<size_t>(Stage::NumStages); ++i)
        stages_[i] += other.stages_[i];
}

const OpCounts &
OpLedger::stage(Stage s) const
{
    return stages_[static_cast<size_t>(s)];
}

OpCounts
OpLedger::total() const
{
    OpCounts t;
    for (const auto &s : stages_)
        t += s;
    return t;
}

bool
OpLedger::operator==(const OpLedger &o) const
{
    for (size_t i = 0; i < static_cast<size_t>(Stage::NumStages); ++i)
        if (!(stages_[i] == o.stages_[i]))
            return false;
    return true;
}

void
OpLedger::clear()
{
    for (auto &s : stages_)
        s = OpCounts{};
}

} // namespace genreuse
