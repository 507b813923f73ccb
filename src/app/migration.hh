/**
 * @file
 * Live slot migration: one coordinator, stepped by the simulator
 * (SimCluster) from a timed event and by a TCP deployment
 * (ShardedTcpDeployment) from migrateSlots' loop. Each runtime supplies
 * the MigrationRuntime hooks. Phases: Copy (the snapshot manifest) →
 * CatchUp (re-copy keys dirtied by racing writes) → Locked (writes on
 * moving slots park; fences and tracked writes drain) → Verify →
 * Cutover | Abort. One rule set:
 *  - Cut over only on a passing verification scan: every moving key
 *    Valid on every operational source replica, at exactly the timestamp
 *    last copied. Keys whose timestamp moved are re-copied; non-Valid
 *    ones block but are not. At the Locked-phase bound, abort: ownership
 *    stays at the source, whose data is complete by definition.
 *  - A fence or tracked write stops holding the lock when its replica's
 *    incarnation ends: a crash discards the replica's queued jobs, so
 *    nothing behind the fence ran and the write was never acknowledged.
 *  - From Locked step kNudgeAfterSteps on, each moving key still
 *    non-Valid on an operational source gets a local read there. The
 *    read stalls and so arms Hermes' write replay (§3.4) for keys a dead
 *    coordinator left Invalid, which no blocked session would touch.
 *  - Reads are never parked or tracked while the source owns the slot;
 *    they park only inside a multi-group cutover's install window, which
 *    the single-threaded simulator never exposes.
 */

#ifndef HERMES_APP_MIGRATION_HH
#define HERMES_APP_MIGRATION_HH

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "app/slot_map.hh"
#include "common/value_ref.hh"
#include "store/kvs.hh"

namespace hermes::app
{

/** What the coordinator needs from the runtime hosting the groups. */
class MigrationRuntime
{
  public:
    /** A live source replica; a shadow is neither read nor verified. */
    struct Replica
    {
        NodeId id = kInvalidNode;
        /** Its life: a value that changes on every crash and restart. */
        uint64_t incarnation = 0;
        bool shadow = false;
        const store::KvStore *store = nullptr;
    };

    /** One key's committed copy. */
    struct Entry
    {
        Key key = 0;
        ValueRef value;
        Timestamp ts{};
        uint8_t flags = 0;
    };

    virtual ~MigrationRuntime() = default;
    /** Live replicas of group @p shard, ascending id. */
    virtual std::vector<Replica> sourceReplicas(uint32_t shard) = 0;
    /** Install @p entries on every live replica of group @p shard. */
    virtual void copyToDestination(uint32_t shard,
                                   const std::vector<Entry> &entries) = 0;
    /**
     * Run @p landed after every job queued at source replica @p replica
     * so far; a crash may drop it. By default nothing is queued between
     * admission and execution, so it lands at once.
     */
    virtual void
    fence(NodeId, std::function<void()> landed)
    {
        landed();
    }
    /** Local read of @p key at source replica @p replica. */
    virtual void nudge(NodeId replica, Key key) = 0;
    /** Install the successor map: epoch+1, @p slots owned by @p to. */
    virtual void installSuccessor(const std::vector<uint32_t> &slots,
                                  uint32_t to) = 0;
};

/**
 * The migration state machine, one migration at a time, and counters
 * over all of them. The request path (admitOp and its commit hooks) may
 * run on any thread, under the host's own lock of its ownership check:
 * admission is then atomic with that check. The rest runs on one
 * coordinator thread, which holds mutex_ only around shared state, never
 * across a runtime call that reaches a replica.
 */
class MigrationCoordinator
{
  public:
    enum class Phase
    {
        Idle,
        Copy,
        CatchUp,
        Locked,
        Verify,
        Cutover,
    };

    /** The lock engages at this dirty-set size, or after this many
     *  catch-up rounds. */
    static constexpr size_t kLockThreshold = 32;
    static constexpr int kMaxCatchUpRounds = 16;
    static constexpr int kNudgeAfterSteps = 10;

    /** @p copy_batch keys copied per step; abort after @p locked_bound
     *  Locked steps. */
    MigrationCoordinator(MigrationRuntime &runtime, size_t copy_batch,
                         int locked_bound)
        : runtime_(runtime), copyBatch_(copy_batch),
          lockedBound_(locked_bound)
    {}
    // Fence callbacks hold `this`.
    MigrationCoordinator(const MigrationCoordinator &) = delete;
    MigrationCoordinator &operator=(const MigrationCoordinator &) = delete;

    /** Start moving those of @p slots that @p from owns under @p map to
     *  @p to. @return false (nothing started) when a migration is active
     *  or @p from owns none of them. */
    bool begin(const SlotMap &map, std::vector<uint32_t> slots,
               uint32_t from, uint32_t to);
    /** One work quantum. @return whether the migration is still active. */
    bool step();
    /** Engage the lock now: writes on moving slots park from here on. */
    void lock();
    /** End without moving ownership; parked ops re-run at the source. */
    void
    abort()
    {
        if (active())
            end(false);
    }

    bool active() const { return phase() != Phase::Idle; }
    Phase phase() const { return phase_.load(std::memory_order_acquire); }
    uint32_t from() const { return from_; }
    uint32_t to() const { return to_; }

    /** Run when a tracked op commits; empty: nothing to report. */
    using Hook = std::function<void()>;

    /**
     * The request path, for a client op on @p key at replica @p replica
     * (in life @p incarnation; 0: down) of group @p shard. An op that
     * must wait parks as `makeReissue()`, a closure that re-enters the
     * host's request path once the move ends (routed by the map of that
     * time), and nullopt is returned; @p makeReissue runs only then.
     * Otherwise the op runs now, and the return is the hook to call when
     * it commits, before its reply (empty: untracked; see afterCommit).
     */
    template <typename MakeReissue>
    std::optional<Hook>
    admitOp(Key key, bool write, uint32_t shard, NodeId replica,
            uint64_t incarnation, MakeReissue &&makeReissue)
    {
        if (!active())
            return Hook();
        auto held = hold();
        if (phase_ == Phase::Idle || shard != from_
                || !moving_[slotOfKey(key)])
            return Hook();
        if (phase_ == Phase::Cutover || (write && phase_ >= Phase::Locked)) {
            ++parkedOps_;
            parked_.emplace_back(makeReissue());
            return std::nullopt;
        }
        return write ? track(key, replica, incarnation) : Hook();
    }

    uint64_t slotsMigrated() const { return slotsMigrated_; }
    uint64_t migrationsCompleted() const { return completed_; }
    uint64_t migrationsAborted() const { return aborted_; }
    uint64_t migrationWritesParked() const { return parkedOps_; }

  private:
    std::unique_lock<std::mutex>
    hold() const
    {
        return std::unique_lock(mutex_);
    }
    void
    setPhase(Phase phase)
    {
        auto held = hold();
        phase_ = phase;
    }
    /** Under hold(): track a write at @p replica; @return its commit
     *  hook. */
    Hook track(Key key, NodeId replica, uint64_t incarnation);
    /** Count a fence or tracked write against @p replica 's life. */
    void addHold(NodeId replica, uint64_t incarnation);
    void release(uint64_t gen, NodeId replica, uint64_t incarnation);
    void copyKeys(const std::vector<Key> &keys);
    /** A fence or tracked write of a live replica's life remains. */
    bool drainHeld();
    /** The verification scan: queues keys whose timestamp moved for
     *  re-copy, lists (replica, key) pairs found non-Valid. */
    bool verify(std::vector<std::pair<NodeId, Key>> &unsettled);
    /** Cut over (@p moved) or abort; go idle and run the parked ops. */
    void end(bool moved);

    MigrationRuntime &runtime_;
    const size_t copyBatch_;
    const int lockedBound_;
    mutable std::mutex mutex_;

    // Shared with the request path: written under mutex_. phase_ is also
    // read without it, so an idle coordinator admits at one load.
    std::atomic<Phase> phase_ = Phase::Idle;
    uint32_t from_ = 0;
    uint64_t gen_ = 0;
    std::vector<bool> moving_; ///< kNumSlots bitmap
    std::set<Key> dirty_;      ///< written since their last copy
    /** Outstanding fences + tracked writes of one source replica life. */
    struct Hold
    {
        uint64_t life = 0;
        size_t count = 0;
    };
    std::map<NodeId, Hold> holds_;
    std::vector<std::function<void()>> parked_;
    uint64_t parkedOps_ = 0;

    // Coordinator-only.
    std::vector<uint32_t> slots_;
    uint32_t to_ = 0;
    std::set<Key> pending_; ///< to copy, sorted: a deterministic order
    std::map<Key, Timestamp> copiedTs_; ///< the verification baseline
    int catchUpRounds_ = 0;
    int lockedSteps_ = 0;
    uint64_t slotsMigrated_ = 0;
    uint64_t completed_ = 0;
    uint64_t aborted_ = 0;
};

/** @p cb, run after admitOp's hook @p committed when that is set. */
template <typename Callback>
Callback
afterCommit(Callback cb, std::function<void()> committed)
{
    if (!committed)
        return cb;
    return [cb = std::move(cb),
            committed = std::move(committed)](const auto &...args) {
        committed();
        cb(args...);
    };
}

} // namespace hermes::app

#endif // HERMES_APP_MIGRATION_HH
