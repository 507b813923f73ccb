/**
 * @file
 * Synthetic single-key histories with known properties, for exercising
 * the linearizability checkers themselves (the differential JIT-vs-DFS
 * suite and the million-op checker bench) without running a cluster.
 *
 * Two generators:
 *
 *  - genLinearizableHistory: executes a register sequentially (so the
 *    history is valid by construction), then widens each operation's
 *    invocation/response interval around its linearization point. The
 *    spread controls instantaneous concurrency; overlapping intervals
 *    force the checkers to actually search.
 *
 *  - genRandomHistory: arbitrary overlapping intervals with results
 *    drawn randomly from the written-value pool — nearly all such
 *    histories are not linearizable, so the differential suite pairs
 *    them with perturbed valid histories to cover the Ok side too.
 *
 * Plus corruptStaleRead, which plants a guaranteed violation into a
 * valid history (a read, real-time after the overwrite, returning the
 * overwritten value).
 */

#ifndef HERMES_TESTS_SUPPORT_HISTORY_GEN_HH
#define HERMES_TESTS_SUPPORT_HISTORY_GEN_HH

#include <string>
#include <vector>

#include "app/history.hh"
#include "common/random.hh"
#include "support/str_cat.hh"

namespace hermes::test
{

inline Value
tagValue(uint64_t tag)
{
    return strCat("v", tag);
}

/**
 * A linearizable-by-construction history of @p num_ops ops on key 1.
 * Linearization points sit 1000 time units apart; each interval extends
 * up to @p spread units on both sides, so spread/1000 neighboring ops
 * overlap (spread 0 = strictly sequential).
 */
inline std::vector<app::HistOp>
genLinearizableHistory(uint64_t seed, size_t num_ops, uint64_t spread,
                       double write_ratio = 0.4, double cas_ratio = 0.25)
{
    Rng rng(seed);
    std::vector<app::HistOp> ops;
    ops.reserve(num_ops);
    Value current;
    uint64_t tag = 0;
    for (size_t i = 0; i < num_ops; ++i) {
        TimeNs lin = 1000 * (i + 1) + spread;
        app::HistOp op;
        op.key = 1;
        if (rng.nextBool(write_ratio)) {
            if (rng.nextBool(cas_ratio)) {
                op.kind = app::HistOp::Kind::Cas;
                // Half the CASes observe the current value and apply.
                op.expected =
                    rng.nextBool(0.5) ? current : tagValue(++tag);
                op.arg = tagValue(++tag);
                op.result = current;
                op.casApplied = op.expected == current;
                if (op.casApplied)
                    current = op.arg;
            } else {
                op.kind = app::HistOp::Kind::Write;
                op.arg = tagValue(++tag);
                current = op.arg;
            }
        } else {
            op.kind = app::HistOp::Kind::Read;
            op.result = current;
        }
        op.invoke = lin - 1 - rng.nextBounded(spread + 1);
        op.response = lin + 1 + rng.nextBounded(spread + 1);
        ops.push_back(std::move(op));
    }
    return ops;
}

/**
 * An arbitrary overlapping history on key 1: writes carry unique tags;
 * reads and CAS observations draw uniformly from {initial} ∪ {all
 * written values}, with no regard for validity. Feeds the differential
 * suite — the two engines must agree on every verdict.
 */
inline std::vector<app::HistOp>
genRandomHistory(uint64_t seed, size_t num_ops)
{
    Rng rng(seed);
    // Pre-assign write tags so early reads can "guess" later values too.
    std::vector<Value> pool{Value{}};
    for (size_t i = 0; i < num_ops; ++i)
        pool.push_back(tagValue(i + 1));
    auto draw = [&]() { return pool[rng.nextBounded(pool.size())]; };

    std::vector<app::HistOp> ops;
    ops.reserve(num_ops);
    for (size_t i = 0; i < num_ops; ++i) {
        app::HistOp op;
        op.key = 1;
        op.invoke = rng.nextBounded(num_ops * 60);
        op.response = op.invoke + 1 + rng.nextBounded(200);
        double roll = rng.nextDouble();
        if (roll < 0.35) {
            op.kind = app::HistOp::Kind::Write;
            op.arg = tagValue(i + 1);
        } else if (roll < 0.55) {
            op.kind = app::HistOp::Kind::Cas;
            op.expected = draw();
            op.arg = tagValue(i + 1);
            op.result = draw();
            op.casApplied = rng.nextBool(0.5);
        } else {
            op.kind = app::HistOp::Kind::Read;
            op.result = draw();
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/**
 * Plant a guaranteed stale read into a strictly sequential history:
 * rewrite the last read to return the value the preceding write
 * overwrote. Returns false (history untouched) if the shape needed —
 * write, overwrite, then a read — never occurs.
 */
inline bool
corruptStaleRead(std::vector<app::HistOp> &ops)
{
    // Find a read; then the two most recent value-installing ops before
    // it. The read happens real-time after both (sequential history), so
    // returning the older value violates.
    for (size_t r = ops.size(); r-- > 0;) {
        if (ops[r].kind != app::HistOp::Kind::Read)
            continue;
        Value newest, older;
        bool have_newest = false, have_older = false;
        for (size_t w = r; w-- > 0;) {
            const app::HistOp &op = ops[w];
            Value installed;
            if (op.kind == app::HistOp::Kind::Write)
                installed = op.arg;
            else if (op.kind == app::HistOp::Kind::Cas && op.casApplied)
                installed = op.arg;
            else
                continue;
            if (!have_newest) {
                newest = installed;
                have_newest = true;
            } else {
                older = installed;
                have_older = true;
                break;
            }
        }
        if (have_newest && have_older && newest != older) {
            ops[r].result = older;
            return true;
        }
    }
    return false;
}

} // namespace hermes::test

#endif // HERMES_TESTS_SUPPORT_HISTORY_GEN_HH
