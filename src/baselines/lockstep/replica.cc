#include "baselines/lockstep/replica.hh"

#include "common/logging.hh"
#include "store/wal.hh"

namespace hermes::lockstep
{

using store::KeyRecord;

void
registerLockstepCodecs()
{
    net::registerMessage<SubmitMsg>();
    net::registerMessage<RoundMsg>();
    net::registerMessage<RoundAckMsg>();
}

LockstepReplica::LockstepReplica(net::Env &env, store::KvStore &store,
                                 membership::MembershipView initial,
                                 LockstepConfig config)
    : env_(env), store_(store), view_(std::move(initial)), config_(config)
{
    hermes_assert(!view_.live.empty());
    registerLockstepCodecs();
}

// ---------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------

void
LockstepReplica::read(Key key, ReadCallback cb)
{
    ++stats_.readsCompleted;
    store::ReadResult result = store_.read(key);
    cb(result.value);
}

void
LockstepReplica::write(Key key, ValueRef value, WriteCallback cb)
{
    uint64_t req_id = nextReqId_++;
    clientOps_[req_id] = std::move(cb);
    Entry entry{key, std::move(value), env_.self(), req_id};
    if (isSequencer()) {
        submitQueue_.push_back(std::move(entry));
        maybeStartRound();
        return;
    }
    auto submit = std::make_shared<SubmitMsg>();
    submit->epoch = view_.epoch;
    submit->entry = std::move(entry);
    env_.send(sequencer(), submit);
}

// ---------------------------------------------------------------------
// Sequencer machinery
// ---------------------------------------------------------------------

void
LockstepReplica::submitToSequencer(Entry entry)
{
    submitQueue_.push_back(std::move(entry));
    maybeStartRound();
}

void
LockstepReplica::maybeStartRound()
{
    // Lock-step: at most one round is in flight; the next opens only
    // after this node (the sequencer) has delivered the previous one.
    if (!isSequencer() || roundInFlight_ || submitQueue_.empty())
        return;
    roundInFlight_ = true;
    if (config_.roundOverheadNs > 0)
        env_.chargeCpu(config_.roundOverheadNs);
    uint64_t round = ++nextRound_;
    std::vector<Entry> batch;
    while (!submitQueue_.empty() && batch.size() < config_.roundBatchCap) {
        batch.push_back(std::move(submitQueue_.front()));
        submitQueue_.pop_front();
    }
    auto msg = std::make_shared<RoundMsg>();
    msg->epoch = view_.epoch;
    msg->round = round;
    msg->entries = batch;
    env_.broadcast(view_.live, msg);
    handleRound(round, std::move(batch)); // self-delivery of the broadcast
}

void
LockstepReplica::handleRound(uint64_t round, std::vector<Entry> entries)
{
    PendingRound &pending = rounds_[round];
    pending.entries = std::move(entries);
    pending.haveEntries = true;
    // Stability vote: tell everyone we hold the round.
    auto ack = std::make_shared<RoundAckMsg>();
    ack->epoch = view_.epoch;
    ack->round = round;
    env_.broadcast(view_.live, ack);
    recordRoundAck(round, env_.self());
}

void
LockstepReplica::recordRoundAck(uint64_t round, NodeId from)
{
    if (round <= lastDelivered_)
        return; // late ack of a delivered round
    PendingRound &pending = rounds_[round];
    if (!contains(pending.acked, from))
        pending.acked.push_back(from);
    tryDeliver();
}

void
LockstepReplica::tryDeliver()
{
    for (;;) {
        auto it = rounds_.find(lastDelivered_ + 1);
        if (it == rounds_.end() || !it->second.haveEntries)
            return;
        // Deliver only when *every* live member acknowledged — virtual
        // synchrony's lock-step stability condition.
        for (NodeId n : view_.live) {
            if (!contains(it->second.acked, n))
                return;
        }
        PendingRound pending = std::move(it->second);
        rounds_.erase(it);
        ++lastDelivered_;
        ++stats_.roundsDelivered;
        for (Entry &entry : pending.entries) {
            ++stats_.entriesDelivered;
            env_.chargeStoreAccess(1);
            uint32_t applied_version =
                store_.withKey(entry.key, [&](KeyRecord &rec) {
                    rec.meta().ts.version += 1;
                    rec.setValue(entry.value);
                    return rec.meta().ts.version;
                });
            if (store::Wal *wal = store_.wal())
                wal->append(entry.key, Timestamp{applied_version, 0}, 0,
                            entry.value);
            if (entry.origin == env_.self()) {
                auto op = clientOps_.find(entry.reqId);
                if (op != clientOps_.end()) {
                    WriteCallback cb = std::move(op->second);
                    clientOps_.erase(op);
                    ++stats_.writesCommitted;
                    if (cb)
                        cb();
                }
            }
        }
        if (isSequencer()) {
            roundInFlight_ = false;
            maybeStartRound();
        }
    }
}

// ---------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------

void
LockstepReplica::onMessage(const net::MessagePtr &msg)
{
    if (msg->epoch != view_.epoch)
        return;
    switch (msg->type()) {
      case net::MsgType::LockstepSubmit:
        onSubmit(static_cast<const SubmitMsg &>(*msg));
        break;
      case net::MsgType::LockstepRound:
        onRound(static_cast<const RoundMsg &>(*msg));
        break;
      case net::MsgType::LockstepAck:
        onRoundAck(static_cast<const RoundAckMsg &>(*msg));
        break;
      default:
        panic("LockstepReplica got message type %u",
              static_cast<unsigned>(msg->type()));
    }
}

void
LockstepReplica::onSubmit(const SubmitMsg &msg)
{
    hermes_assert(isSequencer());
    submitToSequencer(msg.entry);
}

void
LockstepReplica::onRound(const RoundMsg &msg)
{
    handleRound(msg.round, msg.entries);
}

void
LockstepReplica::onRoundAck(const RoundAckMsg &msg)
{
    recordRoundAck(msg.round, msg.src);
}

// ---------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------

void
LockstepReplica::onViewChange(const membership::MembershipView &view)
{
    if (view.epoch <= view_.epoch)
        return;
    view_ = view;
    // Simplified view change: undelivered rounds are dropped and
    // submitters' callbacks for lost entries never fire. That suffices
    // because this baseline is only evaluated failure-free (Figure 8).
    rounds_.clear();
    roundInFlight_ = false;
    tryDeliver();
}

} // namespace hermes::lockstep
