#include "app/cluster.hh"

#include <algorithm>
#include <map>
#include <set>

#include "app/slot_map.hh"
#include "common/logging.hh"
#include "hermes/key_state.hh"

namespace hermes::app
{

uint32_t
shardOfKey(Key key, size_t num_shards)
{
    if (num_shards <= 1)
        return 0; // also the 0 = unknown-map degenerate case: never % 0
    // Key → slot → shard: the uniform (epoch-1) SlotMap placement, as a
    // pure function of (key, numShards) so every client and every node
    // computes the same owner with no coordination. For POWER-OF-TWO
    // shard counts (S | kNumSlots) `slot % S` equals the legacy direct
    // `splitmix64(key) % S`, so the golden shard expectations and
    // recorded histories — all at such counts — are unchanged; other
    // counts get a consistent but different placement (see kNumSlots).
    // Deployments whose ownership has diverged from uniform
    // (post-migration) route through their live SlotMap instead of this
    // static default.
    return slotOfKey(key) % num_shards;
}

ShardMap::ShardMap(size_t shards, size_t replicas_per_shard)
    : replicasPerShard_(replicas_per_shard)
{
    hermes_assert(shards > 0 && replicas_per_shard > 0);
    groups_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
        NodeSet group;
        for (size_t r = 0; r < replicas_per_shard; ++r)
            group.push_back(static_cast<NodeId>(s * replicas_per_shard + r));
        groups_.push_back(std::move(group));
    }
}

/**
 * Migration coordinator state: one live slot move, driven by timed
 * migrationStep() events until cutover.
 */
struct SimCluster::Migration
{
    enum class Phase
    {
        Copy,   ///< snapshot + catch-up rounds; writes apply at source
        Locked, ///< new writes park; final drain before cutover
    };

    std::vector<uint32_t> slots; ///< sorted, deduped, owned by `from`
    std::vector<bool> moving;    ///< kNumSlots bitmap over `slots`
    uint32_t from = 0;
    uint32_t to = 0;
    uint64_t gen = 0; ///< disambiguates stale completion wrappers
    Phase phase = Phase::Copy;
    std::set<Key> pending; ///< keys to copy this round (sorted: determinism)
    std::set<Key> dirty;   ///< keys re-dirtied by writes since their copy
    uint64_t inflight = 0; ///< moving-slot writes between submit and cb
    int lockedWaitSteps = 0;
    /** Timestamp last forwarded per key — the cutover scan's baseline. */
    std::map<Key, Timestamp> copiedTs;
    /**
     * Locked-phase job-queue fences, one per live source replica: a
     * write submitted BEFORE the lock engaged may still sit unexecuted
     * in its node's FIFO, invisible to both the store and the inflight
     * counter. Once the fence job behind it has run, the write's INV is
     * applied locally and the cutover scan can see its non-Valid trace.
     */
    std::shared_ptr<size_t> fencesPending;

    /** A write/cas blocked at the migration lock, replayed at cutover. */
    struct Parked
    {
        bool isCas = false;
        Key key = 0;
        ValueRef value;
        ValueRef expected;
        ReplicaHandle::WriteCallback wcb;
        ReplicaHandle::CasCallback ccb;
    };
    std::vector<Parked> parked;
};

namespace
{

/** Migration pacing: one work quantum per step, a batch of keys each. */
constexpr DurationNs kMigrationStepNs = 100_us;
constexpr size_t kMigrationCopyBatch = 64;
/** Dirty-set size below which the coordinator takes the lock. */
constexpr size_t kMigrationLockThreshold = 32;
/**
 * Steps the Locked phase waits for in-flight writes to drain before
 * cutting over anyway. A crashed coordinator's write never completes
 * (and never acks, so nothing is owed); a live straggler that commits
 * after cutover is forwarded to the new owner before its ack fires.
 */
constexpr int kMaxLockedWaitSteps = 100;

} // namespace

SimCluster::SimCluster(ClusterConfig config)
    : config_(std::move(config)),
      shardMap_(config_.shards ? config_.shards : 1, config_.nodes),
      slotMap_(SlotMap::uniform(
          static_cast<uint32_t>(config_.shards ? config_.shards : 1)))
{
    runtime_ = std::make_unique<sim::SimRuntime>(shardMap_.totalNodes(),
                                                 config_.cost, config_.seed);
    size_t live_per_group =
        config_.initialLive ? config_.initialLive : config_.nodes;
    for (uint32_t s = 0; s < shardMap_.numShards(); ++s) {
        NodeId base = shardMap_.baseOf(s);
        // Each group gets its own membership view over its id block (the
        // first live_per_group ids; the rest are spares), so RM agents
        // heartbeat and reconfigure strictly within their shard.
        membership::MembershipView initial{1, {}};
        for (size_t i = 0; i < live_per_group; ++i)
            initial.live.push_back(base + static_cast<NodeId>(i));
        for (size_t i = 0; i < config_.nodes; ++i) {
            NodeId id = base + static_cast<NodeId>(i);
            replicas_.push_back(makeReplica(config_.protocol,
                                            runtime_->env(id), initial,
                                            optionsForNode(s, id)));
            runtime_->attach(id, replicas_.back().get());
        }
    }
}

SimCluster::~SimCluster() = default;

ReplicaOptions
SimCluster::optionsForNode(uint32_t shard, NodeId id) const
{
    ReplicaOptions options = config_.replica;
    options.hermesConfig.nodeBase = shardMap_.baseOf(shard);
    // Batching policy follows the cost model's knobs so one config
    // drives both the coalescing behavior and its charged costs.
    options.batch = config_.cost.batchPolicy();
    if (!config_.walDir.empty()) {
        options.wal.path =
            config_.walDir + "/node" + std::to_string(id) + ".wal";
        options.wal.fsync = config_.walFsync;
        options.wal.shard = shard;
        // Durability costs follow the cost model too, so sweeps toggle
        // one set of knobs and histories without a WAL stay identical.
        options.wal.appendPerByteNs = config_.cost.walAppendPerByteNs;
        options.wal.fsyncNs = config_.cost.fsyncNs;
        // Recovery ownership follows the LIVE map at replay time, not
        // the map at append time: a restart straddling a cutover must
        // not resurrect slots this shard no longer owns.
        options.walRecoveryOwned = [this, shard](Key k) {
            return slotMap_.ownerOf(k) == shard;
        };
    }
    return options;
}

void
SimCluster::crashRestartNode(NodeId id)
{
    hermes_assert(config_.protocol == Protocol::Hermes);
    hermes_assert(!config_.walDir.empty());
    uint32_t shard = shardMap_.shardOfNode(id);
    if (runtime_->alive(id))
        runtime_->crash(id);

    // Lowest-id live survivor: stands in for the RM's view-change
    // proposer and serves as the state-transfer source. A whole-group
    // outage has no survivor — that scenario is a cold restart through a
    // fresh SimCluster over the same walDir instead.
    NodeId source = kInvalidNode;
    for (NodeId n : shardMap_.nodesOf(shard)) {
        if (n != id && runtime_->alive(n)) {
            source = n;
            break;
        }
    }
    hermes_assert(source != kInvalidNode);
    Epoch epoch = replicas_[source]->hermes()->view().epoch;

    // Epoch+1, without the crashed node: Hermes commits need an ACK from
    // every live view member, so the survivors must drop it from the
    // view or every write in the shard stalls until the rejoin.
    membership::MembershipView without{epoch + 1, {}};
    for (NodeId n : shardMap_.nodesOf(shard)) {
        if (n != id && runtime_->alive(n))
            without.live.push_back(n);
    }
    for (NodeId n : without.live) {
        runtime_->submit(n, 0, [this, n, without] {
            replicas_[n]->injectView(without);
        });
    }

    // Revive the CPU first — the replacement's construction then runs
    // against the fresh timer epoch — and destroy the old handle BEFORE
    // building the new one: its dtor clears the Env flush hook, which
    // would otherwise erase the replacement's registration.
    runtime_->restart(id);
    replicas_[id].reset();
    // Built with the view that excludes it, the fresh replica starts as
    // a shadow (serves nothing yet) and replays its WAL in the ctor:
    // surviving records restore as Invalid at their original
    // timestamps, healed below by state transfer or a §3.4 replay.
    replicas_[id] = makeReplica(config_.protocol, runtime_->env(id),
                                without, optionsForNode(shard, id));
    runtime_->attach(id, replicas_[id].get());
    runtime_->submit(id, 0, [this, id] { replicas_[id]->start(); });

    // Epoch+2 re-admits the node; per-node FIFO job order guarantees the
    // survivors see the shrink before the re-add. Then the reliable
    // m-update-before-stream ordering of §3.4: sync starts only after
    // the extended view is in.
    membership::MembershipView with{epoch + 2, without.live};
    with.live.push_back(id);
    std::sort(with.live.begin(), with.live.end());
    for (NodeId n : with.live) {
        runtime_->submit(n, 0, [this, n, with] {
            replicas_[n]->injectView(with);
        });
    }
    runtime_->submit(id, 0, [this, id, source] {
        replicas_[id]->hermes()->startShadowSync(source);
    });
}

void
SimCluster::start()
{
    runtime_->start();
    // Let start() jobs run (they are zero-cost events at t=0).
    runtime_->runFor(0);
}

NodeId
SimCluster::liveNodeOfShard(uint32_t shard, size_t replica_index) const
{
    const NodeSet &group = shardMap_.nodesOf(shard);
    NodeId preferred = group[replica_index % group.size()];
    if (runtime_->alive(preferred))
        return preferred;
    for (NodeId n : group)
        if (runtime_->alive(n))
            return n;
    return kInvalidNode;
}

void
SimCluster::read(NodeId node, Key key, ReplicaHandle::ReadCallback cb)
{
    hermes_assert(shardMap_.shardOfNode(node) == shardOf(key));
    const sim::CostModel &cost = config_.cost;
    runtime_->submit(node, cost.clientOpNs + cost.kvsOpNs,
                     [this, node, key, cb = std::move(cb)]() mutable {
                         replicas_[node]->read(key, std::move(cb));
                     });
}

void
SimCluster::write(NodeId node, Key key, ValueRef value,
                  ReplicaHandle::WriteCallback cb)
{
    hermes_assert(shardMap_.shardOfNode(node) == shardOf(key));
    if (config_.buggyAckBeforeCommitAtEpoch > 0) {
        // Explorer self-test shim: past the armed epoch the client sees
        // the write complete now, while commit (INV/ACK/VAL) is still in
        // flight — a read elsewhere can then observe the pre-write value
        // after this response, which no linearization can explain.
        proto::HermesReplica *h = replicas_[node]->hermes();
        if (h && h->view().epoch >= config_.buggyAckBeforeCommitAtEpoch) {
            cb();
            cb = [] {};
        }
    }
    if (migration_ && migration_->moving[slotOfKey(key)]) {
        if (migration_->phase == Migration::Phase::Locked) {
            // Migration lock: the final drain is under way; applying at
            // the source now could outrun the transfer and be lost.
            // Park the op — cutover resubmits it to the new owner.
            Migration::Parked p;
            p.key = key;
            p.value = std::move(value);
            p.wcb = std::move(cb);
            migration_->parked.push_back(std::move(p));
            ++writesParked_;
            return;
        }
        // Copy phase: apply at the source (still the owner), but mark
        // the key dirty both NOW (a copy already in flight may carry the
        // pre-write value) and at COMPLETION (the copy step may have
        // erased the dirty bit between submit and protocol commit — the
        // lost-write race this re-mark closes).
        uint32_t slot = slotOfKey(key);
        uint32_t from = migration_->from;
        uint64_t gen = migration_->gen;
        migration_->dirty.insert(key);
        ++migration_->inflight;
        cb = [this, key, slot, from, gen, inner = std::move(cb)]() mutable {
            movingOpFinish(key, slot, from, gen, std::move(inner));
        };
    }
    const sim::CostModel &cost = config_.cost;
    runtime_->submit(node, cost.clientOpNs + cost.kvsOpNs,
                     [this, node, key, value = std::move(value),
                      cb = std::move(cb)]() mutable {
                         replicas_[node]->write(key, std::move(value),
                                                std::move(cb));
                     });
}

void
SimCluster::cas(NodeId node, Key key, ValueRef expected, ValueRef desired,
                ReplicaHandle::CasCallback cb)
{
    hermes_assert(shardMap_.shardOfNode(node) == shardOf(key));
    if (migration_ && migration_->moving[slotOfKey(key)]) {
        if (migration_->phase == Migration::Phase::Locked) {
            Migration::Parked p;
            p.isCas = true;
            p.key = key;
            p.expected = std::move(expected);
            p.value = std::move(desired);
            p.ccb = std::move(cb);
            migration_->parked.push_back(std::move(p));
            ++writesParked_;
            return;
        }
        uint32_t slot = slotOfKey(key);
        uint32_t from = migration_->from;
        uint64_t gen = migration_->gen;
        migration_->dirty.insert(key);
        ++migration_->inflight;
        cb = [this, key, slot, from, gen,
              inner = std::move(cb)](bool ok, const Value &v) mutable {
            movingOpFinish(key, slot, from, gen,
                           [inner = std::move(inner), ok, v] {
                               inner(ok, v);
                           });
        };
    }
    const sim::CostModel &cost = config_.cost;
    runtime_->submit(node, cost.clientOpNs + cost.kvsOpNs,
                     [this, node, key, expected = std::move(expected),
                      desired = std::move(desired),
                      cb = std::move(cb)]() mutable {
                         replicas_[node]->cas(key, std::move(expected),
                                              std::move(desired),
                                              std::move(cb));
                     });
}

std::optional<Value>
SimCluster::readSync(NodeId node, Key key, DurationNs timeout)
{
    std::optional<Value> result;
    read(node, key, [&result](const Value &v) { result = v; });
    TimeNs deadline = now() + timeout;
    while (!result && now() < deadline && !runtime_->events().empty())
        runtime_->events().runOne();
    return result;
}

bool
SimCluster::writeSync(NodeId node, Key key, ValueRef value, DurationNs timeout)
{
    bool done = false;
    write(node, key, std::move(value), [&done] { done = true; });
    TimeNs deadline = now() + timeout;
    while (!done && now() < deadline && !runtime_->events().empty())
        runtime_->events().runOne();
    return done;
}

std::optional<bool>
SimCluster::casSync(NodeId node, Key key, ValueRef expected, ValueRef desired,
                    DurationNs timeout)
{
    std::optional<bool> result;
    cas(node, key, std::move(expected), std::move(desired),
        [&result](bool ok, const Value &) { result = ok; });
    TimeNs deadline = now() + timeout;
    while (!result && now() < deadline && !runtime_->events().empty())
        runtime_->events().runOne();
    return result;
}

bool
SimCluster::converged(Key key) const
{
    // Convergence = every live replica of the owning shard group agrees
    // on (timestamp, value). A replica may legitimately still hold the
    // key in a non-Valid state after quiescence (its VAL was lost): the
    // copy is current — commits require every live replica's ACK — and
    // the first request there heals it through a write replay, so data
    // agreement is the invariant. Other groups never see the key.
    std::optional<store::ReadResult> reference;
    for (NodeId n : shardMap_.nodesOf(shardOf(key))) {
        if (!runtime_->alive(n))
            continue;
        if (config_.protocol == Protocol::Hermes
                && replicas_[n]->hermes()->isShadow()) {
            continue; // a catching-up shadow may lag by design
        }
        store::ReadResult current = replicas_[n]->kvStore().read(key);
        if (!reference) {
            reference = current;
            continue;
        }
        if (current.value != reference->value
                || current.meta.ts != reference->meta.ts) {
            return false;
        }
    }
    return true;
}

// ---- Live slot migration ----

void
SimCluster::migrateSlots(std::vector<uint32_t> slots, uint32_t from,
                         uint32_t to)
{
    hermes_assert(config_.protocol == Protocol::Hermes);
    hermes_assert(from < shardMap_.numShards());
    hermes_assert(to < shardMap_.numShards());
    hermes_assert(from != to);
    if (migration_)
        return; // one at a time; callers poll migrationActive()

    // Keep only slots `from` actually owns, sorted and deduped so the
    // whole transfer is a deterministic function of the request.
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    std::vector<uint32_t> owned;
    for (uint32_t s : slots) {
        if (s < kNumSlots && slotMap_.ownerOfSlot(s) == from)
            owned.push_back(s);
    }
    if (owned.empty())
        return;

    auto m = std::make_unique<Migration>();
    m->slots = std::move(owned);
    m->moving.assign(kNumSlots, false);
    for (uint32_t s : m->slots)
        m->moving[s] = true;
    m->from = from;
    m->to = to;
    m->gen = ++migrationGen_;

    // Snapshot manifest: every key in a moving slot on ANY live source
    // replica (a replica that missed a VAL still stores the committed
    // bytes; the union guards against a lagging lowest-id survivor).
    // std::set keeps the copy order sorted — determinism.
    for (NodeId n : shardMap_.nodesOf(from)) {
        if (!runtime_->alive(n))
            continue;
        replicas_[n]->kvStore().forEach([&](Key k) {
            if (m->moving[slotOfKey(k)])
                m->pending.insert(k);
        });
    }
    migration_ = std::move(m);
    migrationStep();
}

void
SimCluster::scheduleMigration(TimeNs at, std::vector<uint32_t> slots,
                              uint32_t from, uint32_t to)
{
    // Fault-schedule entry point: soft-skip anything the generator's
    // mutations made nonsensical instead of asserting (schedules are
    // adversarial by design).
    runtime_->events().scheduleAt(
        at, [this, slots = std::move(slots), from, to] {
            if (migration_ || from == to || from >= shardMap_.numShards()
                    || to >= shardMap_.numShards()) {
                return;
            }
            migrateSlots(slots, from, to);
        });
}

void
SimCluster::forwardKeyToShard(Key key, uint32_t src, uint32_t dst,
                              std::function<void()> done)
{
    // Read from the lowest-id live NON-SHADOW source replica. Committed
    // data is on every operational replica (commits need all live ACKs),
    // so any of those serves; lowest-id keeps the transfer
    // deterministic. A crash-restarted shadow is excluded: its store is
    // mid-catch-up and may still miss writes committed while it was
    // down — copying from it would teleport stale values to the
    // destination.
    NodeId reader = kInvalidNode;
    for (NodeId n : shardMap_.nodesOf(src)) {
        if (!runtime_->alive(n))
            continue;
        proto::HermesReplica *h = replicas_[n]->hermes();
        if (h && h->isShadow())
            continue;
        reader = n;
        break;
    }
    if (reader == kInvalidNode) {
        // No operational source replica right now: nothing can be read.
        // The copy is skipped — NOT silently forgotten: the cutover bar
        // is migrationQuiesced()'s verification scan, which refuses to
        // pass while no operational source exists, and the bounded
        // Locked-phase wait then ABORTS the migration rather than cut
        // over (moving ownership would strand the source's WAL-only
        // records behind the recovery ownership filter — acknowledged
        // writes permanently lost on both sides).
        if (done)
            done();
        return;
    }
    store::ReadResult r = replicas_[reader]->kvStore().read(key);
    if (!r.found) {
        if (done)
            done();
        return;
    }
    if (migration_ && migration_->moving[slotOfKey(key)])
        migration_->copiedTs[key] = r.meta.ts;

    std::vector<NodeId> targets;
    for (NodeId n : shardMap_.nodesOf(dst)) {
        if (runtime_->alive(n))
            targets.push_back(n);
    }
    if (targets.empty()) {
        if (done)
            done();
        return;
    }
    auto remaining = std::make_shared<size_t>(targets.size());
    ValueRef value = ValueRef::copyOf(r.value);
    for (NodeId n : targets) {
        runtime_->submit(n, config_.cost.kvsOpNs,
                         [this, n, key, value, ts = r.meta.ts,
                          flags = r.meta.flags, remaining, done] {
                             replicas_[n]->applyMigratedEntry(key, value, ts,
                                                              flags);
                             if (--*remaining == 0 && done)
                                 done();
                         });
    }
}

void
SimCluster::movingOpFinish(Key key, uint32_t slot, uint32_t from,
                           uint64_t gen, std::function<void()> deliver)
{
    if (migration_ && migration_->gen == gen) {
        // Still mid-move: the committed value may postdate the copy of
        // this key — re-dirty so a catch-up round re-sends it.
        --migration_->inflight;
        migration_->dirty.insert(key);
    }
    uint32_t owner = slotMap_.ownerOfSlot(slot);
    if (owner == from) {
        deliver();
        return;
    }
    // Straggler: the commit outlived the cutover (bounded Locked-phase
    // wait expired, or a later migration moved the slot again). Forward
    // the final value to the new owner BEFORE acknowledging — once the
    // ack fires the write must be visible wherever reads now route.
    forwardKeyToShard(key, from, owner, std::move(deliver));
}

void
SimCluster::migrationStep()
{
    Migration &m = *migration_;

    // Copy a batch from the front of the pending set. Erase from dirty
    // too: this copy will carry any value a completed write left, and
    // writes still in flight re-dirty themselves at completion.
    size_t copied = 0;
    while (!m.pending.empty() && copied < kMigrationCopyBatch) {
        Key key = *m.pending.begin();
        m.pending.erase(m.pending.begin());
        m.dirty.erase(key);
        forwardKeyToShard(key, m.from, m.to, nullptr);
        ++copied;
    }

    if (m.pending.empty()) {
        if (m.phase == Migration::Phase::Copy) {
            // Catch-up round: everything written since its copy. Once
            // the delta is small, take the lock — new writes park, so
            // the NEXT drain is the last.
            if (m.dirty.size() <= kMigrationLockThreshold) {
                m.phase = Migration::Phase::Locked;
                issueMigrationFences();
            }
            m.pending.swap(m.dirty);
        } else if (!m.dirty.empty()) {
            // Writes that slipped in before the lock engaged (already
            // in flight at lock time) committed and re-dirtied keys.
            m.pending.swap(m.dirty);
        } else if (m.lockedWaitSteps >= kMaxLockedWaitSteps) {
            bool source_up = false;
            for (NodeId n : shardMap_.nodesOf(m.from)) {
                if (!runtime_->alive(n))
                    continue;
                proto::HermesReplica *h = replicas_[n]->hermes();
                if (h && h->isShadow())
                    continue;
                source_up = true;
                break;
            }
            if (!source_up) {
                // The whole source group is down (or still mid-catch-up
                // as shadows): nothing can be read, re-copied or
                // verified, and cutting over would strand every
                // uncopied acknowledged write behind the post-cutover
                // WAL recovery filter. Abort — ownership stays with the
                // source, whose WALs hold the complete data.
                abortMigration();
                return;
            }
            // Bounded wait expired: a crashed replica's fence will
            // never land, or a key is wedged non-Valid (its VAL lost
            // AND its coordinator dead — healed later by a replay).
            // One best-effort re-copy of everything the scan still
            // flags, then cut over; a tracked write completing after
            // this is forwarded by movingOpFinish.
            migrationQuiesced();
            for (Key key : m.pending)
                forwardKeyToShard(key, m.from, m.to, nullptr);
            finishMigration();
            return;
        } else if (m.fencesPending && *m.fencesPending > 0) {
            ++m.lockedWaitSteps; // pre-lock submissions still in FIFOs
        } else if (m.inflight == 0 && migrationQuiesced()) {
            // Locked, drained, fenced, and the verification scan found
            // every moving key Valid everywhere at exactly the
            // timestamp last copied: the destination provably holds
            // every acknowledged write. Cut over.
            finishMigration();
            return;
        } else {
            // Scan queued re-copies into pending, or an in-flight
            // write's trace is still visible: keep draining.
            ++m.lockedWaitSteps;
        }
    }

    runtime_->events().scheduleAfter(
        kMigrationStepNs, [this, gen = m.gen] {
            if (migration_ && migration_->gen == gen)
                migrationStep();
        });
}

void
SimCluster::issueMigrationFences()
{
    Migration &m = *migration_;
    std::vector<NodeId> nodes;
    for (NodeId n : shardMap_.nodesOf(m.from)) {
        if (runtime_->alive(n))
            nodes.push_back(n);
    }
    m.fencesPending = std::make_shared<size_t>(nodes.size());
    for (NodeId n : nodes)
        runtime_->submit(n, 0, [p = m.fencesPending] { --*p; });
}

bool
SimCluster::migrationQuiesced()
{
    Migration &m = *migration_;
    // Live operational source replicas. Shadows are excluded on both
    // sides of the scan: their stores are mid-catch-up (WAL-restored
    // Invalid entries are not in-flight-write traces), and they are
    // never a write coordinator while shadow.
    std::vector<NodeId> sources;
    for (NodeId n : shardMap_.nodesOf(m.from)) {
        if (!runtime_->alive(n))
            continue;
        proto::HermesReplica *h = replicas_[n]->hermes();
        if (h && h->isShadow())
            continue;
        sources.push_back(n);
    }
    if (sources.empty()) {
        // No operational source replica: nothing can be read, verified
        // or healed, so the scan can prove NOTHING about the destination
        // holding every acknowledged write — pre-migration commits may
        // exist only in the source WALs, which the post-cutover recovery
        // filter would skip. Never quiesced; the bounded Locked-phase
        // wait aborts the migration if the group stays down.
        return false;
    }

    // Every key currently in a moving slot, on any operational source
    // replica — a fresh manifest, because writes before the lock may
    // have CREATED keys the snapshot never saw.
    std::set<Key> current;
    for (NodeId n : sources) {
        replicas_[n]->kvStore().forEach([&](Key k) {
            if (m.moving[slotOfKey(k)])
                current.insert(k);
        });
    }

    bool quiesced = true;
    for (Key key : current) {
        // An in-flight write leaves a non-Valid trace on at least its
        // coordinator from local INV-apply until commit — and by ack
        // time its value is in EVERY live replica's store. So all-Valid
        // across the group means no moving key has an unfinished write.
        for (NodeId n : sources) {
            store::ReadResult r = replicas_[n]->kvStore().read(key);
            if (r.found
                    && static_cast<proto::KeyState>(r.meta.state)
                           != proto::KeyState::Valid) {
                quiesced = false;
            }
        }
        // Timestamp check against the last forwarded copy: an untracked
        // write (submitted before the migration began) that committed
        // between this key's copy and now moved the store timestamp.
        store::ReadResult r = replicas_[sources.front()]->kvStore().read(key);
        if (!r.found)
            continue;
        auto it = m.copiedTs.find(key);
        if (it == m.copiedTs.end() || !(it->second == r.meta.ts)) {
            m.pending.insert(key);
            quiesced = false;
        }
    }
    return quiesced;
}

void
SimCluster::finishMigration()
{
    Migration &m = *migration_;

    // Install the epoch+1 map: from this instant routing (shardOf,
    // routeNode, liveRouteNode) answers the new owner.
    slotMap_ = slotMap_.withSlotsMovedTo(m.slots, m.to);
    slotsMigrated_ += m.slots.size();
    ++migrationsCompleted_;

    // Stamp every live node's WAL with the new map epoch so records
    // appended after the cutover are attributable to the new ownership
    // (crash-restart forensics; the replay filter itself always uses
    // the live map). Zero-cost jobs: per-node FIFO order puts the stamp
    // before any post-cutover append on that node.
    uint32_t epoch = slotMap_.epoch;
    for (NodeId n = 0; n < static_cast<NodeId>(replicas_.size()); ++n) {
        if (!runtime_->alive(n))
            continue;
        runtime_->submit(n, 0, [this, n, epoch] {
            if (store::Wal *w = replicas_[n]->wal())
                w->setMapEpoch(epoch);
        });
    }

    // Release the lock and resubmit the parked writes to the new owner.
    // Per-node FIFO puts them after the final drain's install jobs on
    // each destination replica, so they commit over the migrated state.
    std::vector<Migration::Parked> parked = std::move(m.parked);
    uint32_t to = m.to;
    migration_.reset();
    for (Migration::Parked &p : parked) {
        NodeId node = liveNodeOfShard(to, 0);
        if (node == kInvalidNode)
            continue; // dest group down: op stays pending, legal
        if (p.isCas) {
            cas(node, p.key, std::move(p.expected), std::move(p.value),
                std::move(p.ccb));
        } else {
            write(node, p.key, std::move(p.value), std::move(p.wcb));
        }
    }
}

void
SimCluster::abortMigration()
{
    Migration &m = *migration_;
    ++migrationsAborted_;

    // Ownership never moved — the map, the WAL recovery filter and the
    // routing all still answer the source. Parked ops are resubmitted
    // there: with the migration gone they apply normally. A fully-down
    // source group has no live node to take them; those ops simply stay
    // pending, which is legal — none of them was ever acknowledged.
    std::vector<Migration::Parked> parked = std::move(m.parked);
    uint32_t from = m.from;
    migration_.reset();
    for (Migration::Parked &p : parked) {
        NodeId node = liveNodeOfShard(from, 0);
        if (node == kInvalidNode)
            continue;
        if (p.isCas) {
            cas(node, p.key, std::move(p.expected), std::move(p.value),
                std::move(p.ccb));
        } else {
            write(node, p.key, std::move(p.value), std::move(p.wcb));
        }
    }
}

} // namespace hermes::app
