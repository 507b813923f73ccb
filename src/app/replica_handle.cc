#include "app/replica_handle.hh"

#include <algorithm>
#include <filesystem>

#include "common/logging.hh"

namespace hermes::app
{

using membership::MembershipView;

ReplicaHandle::ReplicaHandle(net::Env &env, const ReplicaOptions &options,
                             MembershipView initial,
                             std::optional<uint8_t> wal_restore_state)
    : env_(env), store_(options.storeCapacity, options.maxValueSize)
{
    if (!options.wal.path.empty()) {
        if (wal_restore_state)
            openAndReplayWal(options, *wal_restore_state);
        else
            wal_ = std::make_unique<store::Wal>(options.wal);
        wal_->setChargeFn([this](DurationNs ns) { env_.chargeCpu(ns); });
        wal_->setDurableFn([this](uint64_t seq) {
            if (proto::HermesReplica *engine = hermes())
                engine->onLogDurable(seq);
        });
        store_.setWal(wal_.get());
        // The Env's poll-boundary flush commits the log. TCP: group
        // commit moves to a writer thread, and each frame waits for the
        // records appended before it (the replicate-and-persist-before-
        // replying contract). The sim commits at the job's flush, before
        // its coalesced messages depart.
        env_.attachLog(wal_.get());
    }
    if (options.enableRm)
        rm_ = std::make_unique<membership::RmNode>(env, std::move(initial),
                                                   options.rmConfig);
}

ReplicaHandle::~ReplicaHandle()
{
    // A transport flush after destruction must find no log. (When a
    // replacement handle is built on the same Env — crash-restart —
    // destroy the old handle FIRST, or this would detach the new
    // handle's log.)
    if (wal_)
        env_.attachLog(nullptr);
}

void
ReplicaHandle::openAndReplayWal(const ReplicaOptions &options,
                                uint8_t restore_state)
{
    // Arm the per-key recovery locks: withKey() serializes every live
    // mutation of a replaying key against the replay's read-compare-
    // apply below until recovery disarms them.
    store::KeyLockTable recovery_locks;
    store_.setRecoveryLocks(&recovery_locks);
    const std::function<bool(Key)> &owned = options.walRecoveryOwned;
    wal_ = std::make_unique<store::Wal>(
        options.wal, [&](const store::WalRecordView &rec) {
            // Elastic sharding: skip records for keys whose slot has
            // moved to another shard since the record was appended (the
            // record's mapEpoch predates the cutover). The destination
            // owns the authoritative copy now — resurrecting ours would
            // fork it.
            if (owned && !owned(rec.key))
                return;
            store_.withKey(rec.key, [&](store::KeyRecord &krec) {
                // Newest wins: records replay in append order, and a
                // live INV that raced ahead of the replay must not
                // regress.
                if (rec.ts > krec.meta().ts) {
                    krec.meta().ts = rec.ts;
                    krec.meta().flags = rec.flags;
                    krec.meta().state = restore_state;
                    krec.setValue(rec.value);
                }
            });
        });
    store_.setRecoveryLocks(nullptr);
}

bool
ReplicaHandle::applyMigratedEntry(Key key, const ValueRef &value,
                                  Timestamp ts, uint8_t flags)
{
    bool applied = store_.withKey(key, [&](store::KeyRecord &rec) {
        // Same rules as a shadow-sync state chunk: writes racing the
        // transfer may have installed a newer version — never regress.
        if (ts > rec.meta().ts) {
            rec.meta().ts = ts;
            rec.meta().flags = flags;
            rec.meta().state =
                static_cast<uint8_t>(proto::KeyState::Valid);
            rec.setValue(value);
            return true;
        }
        // Equal timestamp: the source observed this exact version
        // committed, so an Invalid local copy (WAL-restored) upgrades.
        if (ts == rec.meta().ts
                && static_cast<proto::KeyState>(rec.meta().state)
                       == proto::KeyState::Invalid) {
            rec.meta().state =
                static_cast<uint8_t>(proto::KeyState::Valid);
        }
        return false;
    });
    // Migrated data a crash must not lose: log what we adopt, stamped
    // with the destination's current map epoch.
    if (applied) {
        if (store::Wal *w = store_.wal())
            w->append(key, ts, flags, value);
    }
    return applied;
}

bool
ReplicaHandle::routeRm(const net::MessagePtr &msg)
{
    if (!net::isRmMessage(msg->type()))
        return false;
    if (rm_)
        rm_->onMessage(msg);
    return true;
}

namespace
{

/** Shared start/route/view and client forwarding over a protocol engine. */
template <typename Engine, Protocol P>
class HandleBase : public ReplicaHandle
{
  public:
    HandleBase(net::Env &env, const ReplicaOptions &options,
               MembershipView initial,
               std::optional<uint8_t> wal_restore_state = std::nullopt)
        : ReplicaHandle(env, options, initial, wal_restore_state)
    {}

    void
    start() override
    {
        if (rm_) {
            rm_->onViewChange(
                [this](const MembershipView &view) { applyView(view); });
            rm_->start();
        }
    }

    void
    onMessage(const net::MessagePtr &msg) override
    {
        if (routeRm(msg))
            return;
        engine_->onMessage(msg);
    }

    void
    read(Key key, ReadCallback cb) override
    {
        engine_->read(key, std::move(cb));
    }

    void
    write(Key key, ValueRef value, WriteCallback cb) override
    {
        engine_->write(key, std::move(value), std::move(cb));
    }

    const ProtocolTraits &traits() const override { return traitsOf(P); }

    void injectView(const MembershipView &view) override { applyView(view); }

  protected:
    std::unique_ptr<Engine> engine_;

  private:
    void
    applyView(const MembershipView &view)
    {
        engine_->onViewChange(view);
    }
};

class HermesHandle : public HandleBase<proto::HermesReplica, Protocol::Hermes>
{
  public:
    /**
     * Crash recovery: surviving log records restore as Invalid — a
     * logged write was not necessarily committed, so the value must not
     * serve reads until the §3.4 replay or the rejoin's state transfer
     * re-establishes it as Valid. Both heal with the ORIGINAL timestamp,
     * so no acknowledged write is reordered. The base replays before the
     * engine exists, which is safe: the HermesReplica constructor never
     * touches the store.
     */
    HermesHandle(net::Env &env, MembershipView initial,
                 const ReplicaOptions &options)
        : HandleBase(env, options, initial,
                     static_cast<uint8_t>(proto::KeyState::Invalid))
    {
        engine_ = std::make_unique<proto::HermesReplica>(
            env_, store_, initial, options.hermesConfig);
        if (rm_) {
            engine_->setOperationalCheck(
                [rm = rm_.get()] { return rm->operational(); });
        }
    }

    void
    cas(Key key, ValueRef expected, ValueRef desired, CasCallback cb) override
    {
        engine_->cas(key, std::move(expected), std::move(desired),
                     std::move(cb));
    }

    proto::HermesReplica *hermes() override { return engine_.get(); }
};

class CraqHandle : public HandleBase<craq::CraqReplica, Protocol::Craq>
{
  public:
    CraqHandle(net::Env &env, MembershipView initial,
               const ReplicaOptions &options)
        : HandleBase(env, options, initial)
    {
        engine_ = std::make_unique<craq::CraqReplica>(env_, store_,
                                                      initial);
    }

    craq::CraqReplica *craq() override { return engine_.get(); }
};

class ZabHandle : public HandleBase<zab::ZabReplica, Protocol::Zab>
{
  public:
    ZabHandle(net::Env &env, MembershipView initial,
              const ReplicaOptions &options)
        : HandleBase(env, options, initial)
    {
        engine_ = std::make_unique<zab::ZabReplica>(env_, store_,
                                                    initial);
    }

    zab::ZabReplica *zab() override { return engine_.get(); }
};

class LockstepHandle
    : public HandleBase<lockstep::LockstepReplica, Protocol::Lockstep>
{
  public:
    LockstepHandle(net::Env &env, MembershipView initial,
                   const ReplicaOptions &options)
        : HandleBase(env, options, initial)
    {
        engine_ = std::make_unique<lockstep::LockstepReplica>(
            env_, store_, initial, options.lockstepConfig);
    }

    lockstep::LockstepReplica *lockstep() override { return engine_.get(); }
};

} // namespace

std::unique_ptr<ReplicaHandle>
makeReplica(Protocol protocol, net::Env &env, MembershipView initial,
            const ReplicaOptions &options)
{
    switch (protocol) {
      case Protocol::Hermes:
        return std::make_unique<HermesHandle>(env, initial, options);
      case Protocol::Craq:
        return std::make_unique<CraqHandle>(env, initial, options);
      case Protocol::Zab:
        return std::make_unique<ZabHandle>(env, initial, options);
      case Protocol::Lockstep:
        return std::make_unique<LockstepHandle>(env, initial, options);
    }
    panic("unknown protocol");
}

ReplicaOptions
durableOptions(ReplicaOptions options, uint32_t shard, size_t replica,
               std::function<uint32_t(Key)> ownerOf)
{
    if (options.wal.path.empty())
        return options;
    std::string dir = options.wal.path + "/shard" + std::to_string(shard);
    std::filesystem::create_directories(dir);
    options.wal.path = dir + "/replica" + std::to_string(replica) + ".wal";
    options.wal.shard = shard;
    options.walRecoveryOwned = [ownerOf = std::move(ownerOf), shard](Key k) {
        return ownerOf(k) == shard;
    };
    return options;
}

void
ReplicaJob::run(ReplicaHandle &replica) const
{
    if (view)
        replica.injectView(*view);
    else if (syncSource != kInvalidNode)
        replica.hermes()->startShadowSync(syncSource);
    else if (store::Wal *wal = replica.wal())
        wal->setMapEpoch(mapEpoch);
}

void
restartFromWal(ReplicaHost &host, const NodeSet &group, NodeId id)
{
    if (host.alive(id))
        host.crash(id);
    MembershipView without{0, {}};
    for (NodeId n : group) {
        if (n != id && host.alive(n))
            without.live.push_back(n);
    }
    hermes_assert(!without.live.empty());
    NodeId source = without.live.front();
    Epoch epoch = host.viewEpoch(source);

    without.epoch = epoch + 1;
    for (NodeId n : without.live)
        host.queueJob(n, ReplicaJob{without});
    host.rebuild(id, without);
    host.queueJob(id,
                  ReplicaJob{std::nullopt, kInvalidNode, host.mapEpoch()});

    // The node's own FIFO queue puts the sync behind its epoch+2 view.
    MembershipView with{epoch + 2, without.live};
    with.live.push_back(id);
    std::sort(with.live.begin(), with.live.end());
    for (NodeId n : with.live)
        host.queueJob(n, ReplicaJob{with});
    host.queueJob(id, ReplicaJob{std::nullopt, source});
}

void
stampMapEpoch(ReplicaHost &host, size_t count, uint32_t epoch)
{
    for (size_t n = 0; n < count; ++n)
        host.queueJob(static_cast<NodeId>(n),
                      ReplicaJob{std::nullopt, kInvalidNode, epoch});
}

} // namespace hermes::app
