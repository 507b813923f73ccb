#include "app/cluster.hh"

#include "app/slot_map.hh"
#include "common/logging.hh"

namespace hermes::app
{

uint32_t
shardOfKey(Key key, size_t num_shards)
{
    if (num_shards <= 1)
        return 0; // also the 0 = unknown-map degenerate case: never % 0
    // Key → slot → shard: SlotMap::uniform's placement (slot % S), as
    // a pure function of (key, numShards) that workload generators and
    // tests pick keys by. Routing goes through a live SlotMap, which
    // migrations change.
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

namespace
{

/** Sim migration pacing: one work quantum per step, a batch of keys
 *  each; the Locked phase aborts after 100 steps (10 ms). */
constexpr DurationNs kMigrationStepNs = 100_us;
constexpr size_t kMigrationCopyBatch = 64;
constexpr int kMigrationLockedBound = 100;

} // namespace

SimCluster::SimCluster(ClusterConfig config)
    : config_(std::move(config)),
      shardMap_(config_.shards ? config_.shards : 1, config_.nodes),
      slotMap_(SlotMap::uniform(
          static_cast<uint32_t>(config_.shards ? config_.shards : 1))),
      migration_(*this, kMigrationCopyBatch, kMigrationLockedBound)
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
    if (!config_.walDir.empty()) {
        options.wal.path = config_.walDir;
        options.wal.fsync = config_.walFsync;
        // Durability costs follow the cost model too, so sweeps toggle
        // one set of knobs and histories without a WAL stay identical.
        options.wal.appendPerByteNs = config_.cost.walAppendPerByteNs;
        options.wal.fsyncNs = config_.cost.fsyncNs;
    }
    return durableOptions(std::move(options), shard,
                          id - shardMap_.baseOf(shard),
                          [this](Key key) { return slotMap_.ownerOf(key); });
}

void
SimCluster::crashRestartNode(NodeId id)
{
    hermes_assert(config_.protocol == Protocol::Hermes);
    hermes_assert(!config_.walDir.empty());
    restartFromWal(*this, shardMap_.nodesOf(shardMap_.shardOfNode(id)), id);
}

void
SimCluster::queueJob(NodeId id, ReplicaJob job)
{
    runtime_->submit(id, 0, [this, id, job = std::move(job)] {
        job.run(*replicas_[id]);
    });
}

Epoch
SimCluster::viewEpoch(NodeId id)
{
    return replicas_[id]->hermes()->view().epoch;
}

void
SimCluster::rebuild(NodeId id, const membership::MembershipView &view)
{
    // Revive the CPU first — the replacement's construction then runs
    // against the fresh timer epoch — and destroy the old handle BEFORE
    // building the new one: its dtor detaches its log from the Env,
    // which would otherwise detach the replacement's.
    runtime_->restart(id);
    replicas_[id].reset();
    replicas_[id] =
        makeReplica(config_.protocol, runtime_->env(id), view,
                    optionsForNode(shardMap_.shardOfNode(id), id));
    runtime_->attach(id, replicas_[id].get());
    runtime_->submit(id, 0, [this, id] { replicas_[id]->start(); });
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

template <typename Op>
void
SimCluster::submitWrite(NodeId node, Key key, Op op)
{
    hermes_assert(shardMap_.shardOfNode(node) == shardOf(key));
    auto committed = migration_.admitOp(
        key, true, shardMap_.shardOfNode(node), node, incarnation(node), [&] {
            // Applying at the source now could outrun the final drain and
            // be lost: the op re-runs wherever the map routes once the
            // migration ends.
            return [this, key, op = std::move(op)]() mutable {
                NodeId owner = liveRouteNode(key);
                if (owner != kInvalidNode) // group down: stays pending, legal
                    submitWrite(owner, key, std::move(op));
            };
        });
    if (!committed)
        return;
    const sim::CostModel &cost = config_.cost;
    runtime_->submit(node, cost.clientOpNs + cost.kvsOpNs,
                     [this, node, op = std::move(op),
                      committed = std::move(*committed)]() mutable {
                         op(*replicas_[node], std::move(committed));
                     });
}

void
SimCluster::write(NodeId node, Key key, ValueRef value,
                  ReplicaHandle::WriteCallback cb)
{
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
    submitWrite(node, key,
                [key, value = std::move(value), cb = std::move(cb)](
                    ReplicaHandle &replica,
                    std::function<void()> committed) mutable {
                    replica.write(key, std::move(value),
                                  afterCommit(std::move(cb),
                                              std::move(committed)));
                });
}

void
SimCluster::cas(NodeId node, Key key, ValueRef expected, ValueRef desired,
                ReplicaHandle::CasCallback cb)
{
    submitWrite(node, key,
                [key, expected = std::move(expected),
                 desired = std::move(desired), cb = std::move(cb)](
                    ReplicaHandle &replica,
                    std::function<void()> committed) mutable {
                    replica.cas(key, std::move(expected), std::move(desired),
                                afterCommit(std::move(cb),
                                            std::move(committed)));
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
    if (migration_.begin(slotMap_, std::move(slots), from, to))
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
            if (migration_.active() || from == to
                    || from >= shardMap_.numShards()
                    || to >= shardMap_.numShards()) {
                return;
            }
            migrateSlots(slots, from, to);
        });
}

void
SimCluster::migrationStep()
{
    // The coordinator only ends inside step(), so a scheduled step can
    // never outlive its migration.
    if (migration_.step())
        runtime_->events().scheduleAfter(kMigrationStepNs,
                                         [this] { migrationStep(); });
}

std::vector<MigrationRuntime::Replica>
SimCluster::sourceReplicas(uint32_t shard)
{
    std::vector<Replica> live;
    for (NodeId n : shardMap_.nodesOf(shard)) {
        if (!runtime_->alive(n))
            continue;
        proto::HermesReplica *h = replicas_[n]->hermes();
        live.push_back({n, incarnation(n), h && h->isShadow(),
                        &replicas_[n]->kvStore()});
    }
    return live;
}

void
SimCluster::copyToDestination(uint32_t shard,
                              const std::vector<Entry> &entries)
{
    std::vector<NodeId> targets;
    for (NodeId n : shardMap_.nodesOf(shard)) {
        if (runtime_->alive(n))
            targets.push_back(n);
    }
    for (const Entry &e : entries) {
        for (NodeId n : targets) {
            runtime_->submit(n, config_.cost.kvsOpNs, [this, n, e] {
                replicas_[n]->applyMigratedEntry(e.key, e.value, e.ts,
                                                 e.flags);
            });
        }
    }
}

void
SimCluster::fence(NodeId replica, std::function<void()> landed)
{
    runtime_->submit(replica, 0, std::move(landed));
}

uint64_t
SimCluster::incarnation(NodeId id) const
{
    return runtime_->alive(id) ? runtime_->incarnation(id) + 1 : 0;
}

void
SimCluster::nudge(NodeId replica, Key key)
{
    runtime_->submit(replica, config_.cost.kvsOpNs, [this, replica, key] {
        replicas_[replica]->read(key, [](const Value &) {});
    });
}

void
SimCluster::installSuccessor(const std::vector<uint32_t> &slots, uint32_t to)
{
    // From this instant routing (shardOf, routeNode, liveRouteNode)
    // answers the new owner.
    slotMap_ = slotMap_.withSlotsMovedTo(slots, to);

    // Zero-cost jobs: per-node FIFO order puts the stamp before any
    // post-cutover append on that node.
    stampMapEpoch(*this, replicas_.size(), slotMap_.epoch);
}

} // namespace hermes::app
