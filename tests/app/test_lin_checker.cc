/**
 * @file
 * The linearizability checker itself, validated on hand-built histories
 * with known verdicts — including the classic stale-read and lost-update
 * anomalies it must catch, CAS semantics, and pending-operation handling.
 */

#include <gtest/gtest.h>

#include "app/lin_checker.hh"
#include "support/str_cat.hh"

namespace hermes::app
{
namespace
{

HistOp
write(Key key, Value v, TimeNs invoke, TimeNs response)
{
    HistOp op;
    op.kind = HistOp::Kind::Write;
    op.key = key;
    op.arg = std::move(v);
    op.invoke = invoke;
    op.response = response;
    return op;
}

HistOp
read(Key key, Value result, TimeNs invoke, TimeNs response)
{
    HistOp op;
    op.kind = HistOp::Kind::Read;
    op.key = key;
    op.result = std::move(result);
    op.invoke = invoke;
    op.response = response;
    return op;
}

HistOp
cas(Key key, Value expected, Value desired, bool applied, Value observed,
    TimeNs invoke, TimeNs response)
{
    HistOp op;
    op.kind = HistOp::Kind::Cas;
    op.key = key;
    op.expected = std::move(expected);
    op.arg = std::move(desired);
    op.casApplied = applied;
    op.result = std::move(observed);
    op.invoke = invoke;
    op.response = response;
    return op;
}

TEST(LinChecker, EmptyHistoryOk)
{
    EXPECT_EQ(checkKeyHistory({}), LinResult::Ok);
}

TEST(LinChecker, SequentialWriteRead)
{
    std::vector<HistOp> ops{
        write(1, "a", 0, 10),
        read(1, "a", 20, 30),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Ok);
}

TEST(LinChecker, ReadOfInitialValue)
{
    std::vector<HistOp> ops{read(1, "", 0, 10)};
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Ok);
}

TEST(LinChecker, StaleReadViolates)
{
    // Read strictly after a committed write must not return the old value.
    std::vector<HistOp> ops{
        write(1, "new", 0, 10),
        read(1, "", 20, 30),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Violation);
}

TEST(LinChecker, ConcurrentReadMayReturnEitherValue)
{
    // Read overlaps the write: both outcomes linearize.
    std::vector<HistOp> overlap_old{
        write(1, "new", 0, 100),
        read(1, "", 10, 20),
    };
    std::vector<HistOp> overlap_new{
        write(1, "new", 0, 100),
        read(1, "new", 10, 20),
    };
    EXPECT_EQ(checkKeyHistory(overlap_old), LinResult::Ok);
    EXPECT_EQ(checkKeyHistory(overlap_new), LinResult::Ok);
}

TEST(LinChecker, ReadYourOwnWriteRequired)
{
    // A session reading right after its own write must see it; seeing a
    // THIRD value that was overwritten before the write is a violation.
    std::vector<HistOp> ops{
        write(1, "a", 0, 10),
        write(1, "b", 20, 30),
        read(1, "a", 40, 50), // 'a' was overwritten by committed 'b'
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Violation);
}

TEST(LinChecker, OrderedConcurrentWritesObservedConsistently)
{
    // Two concurrent writes and two later reads that disagree on the
    // final value: no single order explains both reads.
    std::vector<HistOp> ops{
        write(1, "x", 0, 100),
        write(1, "y", 0, 100),
        read(1, "x", 200, 210),
        read(1, "y", 220, 230),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Violation);
}

TEST(LinChecker, InterleavedReadsAllowBothOrders)
{
    // Concurrent writes with reads *between* them overlapping: fine.
    std::vector<HistOp> ops{
        write(1, "x", 0, 100),
        write(1, "y", 0, 100),
        read(1, "x", 50, 60),
        read(1, "y", 200, 210),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Ok);
}

TEST(LinChecker, CasSuccessRequiresExpectedValue)
{
    std::vector<HistOp> good{
        write(1, "a", 0, 10),
        cas(1, "a", "b", true, "a", 20, 30),
        read(1, "b", 40, 50),
    };
    EXPECT_EQ(checkKeyHistory(good), LinResult::Ok);

    std::vector<HistOp> bad{
        write(1, "a", 0, 10),
        cas(1, "z", "b", true, "z", 20, 30), // claims success vs 'z'?!
    };
    EXPECT_EQ(checkKeyHistory(bad), LinResult::Violation);
}

TEST(LinChecker, CasFailureMustObserveRealValue)
{
    std::vector<HistOp> good{
        write(1, "a", 0, 10),
        cas(1, "z", "b", false, "a", 20, 30),
        read(1, "a", 40, 50),
    };
    EXPECT_EQ(checkKeyHistory(good), LinResult::Ok);

    std::vector<HistOp> bad{
        write(1, "a", 0, 10),
        cas(1, "z", "b", false, "q", 20, 30), // observed a ghost value
    };
    EXPECT_EQ(checkKeyHistory(bad), LinResult::Violation);
}

TEST(LinChecker, FailedCasThatShouldHaveSucceededViolates)
{
    // Value equals expected for the entire CAS window, yet it failed.
    std::vector<HistOp> ops{
        write(1, "a", 0, 10),
        cas(1, "a", "b", false, "a", 20, 30),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Violation);
}

TEST(LinChecker, LostUpdateCaught)
{
    // Two successful CASes from the same expected value: the second
    // success is impossible (classic lost update).
    std::vector<HistOp> ops{
        write(1, "a", 0, 10),
        cas(1, "a", "b", true, "a", 20, 100),
        cas(1, "a", "c", true, "a", 20, 100),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Violation);
}

TEST(LinChecker, PendingWriteMayOrMayNotApply)
{
    // A pending (crashed) write explains a later read of its value...
    std::vector<HistOp> applied{
        write(1, "ghost", 0, kPendingResponse),
        read(1, "ghost", 100, 110),
    };
    EXPECT_EQ(checkKeyHistory(applied), LinResult::Ok);
    // ...and its absence is equally fine.
    std::vector<HistOp> dropped{
        write(1, "ghost", 0, kPendingResponse),
        read(1, "", 100, 110),
    };
    EXPECT_EQ(checkKeyHistory(dropped), LinResult::Ok);
}

TEST(LinChecker, PendingWriteCannotExplainPreInvocationRead)
{
    // The pending write was invoked at t=100; a read completing at t=50
    // cannot have seen it.
    std::vector<HistOp> ops{
        read(1, "ghost", 10, 50),
        write(1, "ghost", 100, kPendingResponse),
    };
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Violation);
}

TEST(LinChecker, MultiKeyComposition)
{
    History history;
    history.add(write(1, "a", 0, 10));
    history.add(write(2, "b", 0, 10));
    history.add(read(1, "a", 20, 30));
    history.add(read(2, "", 20, 30)); // stale on key 2!
    LinReport report = checkHistory(history);
    EXPECT_EQ(report.result, LinResult::Violation);
    EXPECT_EQ(report.offendingKey, 2u);
}

TEST(LinChecker, LongSequentialHistoryFast)
{
    // Sequential histories must check in linear-ish time.
    std::vector<HistOp> ops;
    Value prev;
    for (int i = 0; i < 2000; ++i) {
        Value v = test::strCat("v", i);
        ops.push_back(write(1, v, i * 10, i * 10 + 5));
        ops.push_back(read(1, v, i * 10 + 6, i * 10 + 9));
        prev = v;
    }
    EXPECT_EQ(checkKeyHistory(ops), LinResult::Ok);
}

TEST(LinChecker, TinyBudgetReportsInconclusive)
{
    std::vector<HistOp> ops;
    for (int i = 0; i < 12; ++i)
        ops.push_back(write(1, test::strCat("w", i), 0, 1000));
    EXPECT_EQ(checkKeyHistory(ops, {}, /*state_budget=*/4),
              LinResult::Inconclusive);
}

} // namespace
} // namespace hermes::app
