#include "app/migration.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hermes/key_state.hh"

namespace hermes::app
{

bool
MigrationCoordinator::begin(const SlotMap &map, std::vector<uint32_t> slots,
                            uint32_t from, uint32_t to)
{
    // Sorted and deduped: the transfer is a deterministic function of
    // the request.
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    std::erase_if(slots, [&](uint32_t slot) {
        return slot >= kNumSlots || map.ownerOfSlot(slot) != from;
    });
    if (active() || slots.empty())
        return false;
    slots_ = std::move(slots);
    to_ = to;
    copiedTs_.clear();
    catchUpRounds_ = lockedSteps_ = 0;
    {
        auto held = hold();
        from_ = from;
        moving_.assign(kNumSlots, false);
        for (uint32_t slot : slots_)
            moving_[slot] = true;
        ++gen_;
        phase_ = Phase::Copy;
    }
    // The manifest: every moving key on ANY live source replica (one
    // that missed a VAL still stores the committed bytes). Writes from
    // here on are dirtied by admission.
    for (const MigrationRuntime::Replica &r : runtime_.sourceReplicas(from_)) {
        r.store->forEach([&](Key key) {
            if (moving_[slotOfKey(key)])
                pending_.insert(key);
        });
    }
    return true;
}

void
MigrationCoordinator::copyKeys(const std::vector<Key> &keys)
{
    // Read from the lowest-id operational source replica; a shadow's
    // store is mid-catch-up and could teleport stale values. With none,
    // nothing is copied, and verify() cannot pass.
    if (keys.empty())
        return;
    const store::KvStore *reader = nullptr;
    for (const MigrationRuntime::Replica &r : runtime_.sourceReplicas(from_)) {
        if (!reader && !r.shadow)
            reader = r.store;
    }
    if (!reader)
        return;
    std::vector<MigrationRuntime::Entry> entries;
    for (Key key : keys) {
        store::ReadResult r = reader->read(key);
        if (r.found) {
            copiedTs_[key] = r.meta.ts;
            entries.push_back(
                {key, ValueRef::copyOf(r.value), r.meta.ts, r.meta.flags});
        }
    }
    if (!entries.empty())
        runtime_.copyToDestination(to_, entries);
}

void
MigrationCoordinator::lock()
{
    if (phase_ != Phase::Copy && phase_ != Phase::CatchUp)
        return;
    // A write admitted before the lock may still sit unexecuted in its
    // replica's job queue, invisible to the store; once the fence behind
    // it lands, the scan sees its trace.
    std::vector<MigrationRuntime::Replica> fenced =
        runtime_.sourceReplicas(from_);
    {
        auto held = hold();
        phase_ = Phase::Locked;
        for (const MigrationRuntime::Replica &r : fenced)
            addHold(r.id, r.incarnation);
    }
    for (const MigrationRuntime::Replica &r : fenced) {
        runtime_.fence(r.id, [this, gen = gen_, id = r.id,
                              life = r.incarnation] {
            auto held = hold();
            release(gen, id, life);
        });
    }
}

void
MigrationCoordinator::addHold(NodeId replica, uint64_t incarnation)
{
    Hold &h = holds_[replica];
    if (h.life != incarnation)
        h = {incarnation, 0}; // the old life's holds died with it
    ++h.count;
}

void
MigrationCoordinator::release(uint64_t gen, NodeId replica,
                              uint64_t incarnation)
{
    auto it = holds_.find(replica);
    if (phase_ != Phase::Idle && gen == gen_ && it != holds_.end()
            && it->second.life == incarnation && it->second.count > 0)
        --it->second.count;
}

bool
MigrationCoordinator::drainHeld()
{
    // A replica that is down or restarted since holds nothing.
    std::vector<MigrationRuntime::Replica> live =
        runtime_.sourceReplicas(from_);
    auto held = hold();
    for (const MigrationRuntime::Replica &r : live) {
        auto it = holds_.find(r.id);
        if (it != holds_.end() && it->second.count > 0
                && it->second.life == r.incarnation)
            return true;
    }
    return false;
}

bool
MigrationCoordinator::step()
{
    // Copy a batch off the pending set. Clearing its dirty marks is
    // safe: the copy carries what completed writes left, and a write
    // still in flight re-dirties its key when it commits.
    std::vector<Key> batch;
    bool engage = false;
    {
        auto held = hold();
        while (!pending_.empty() && batch.size() < copyBatch_) {
            batch.push_back(*pending_.begin());
            pending_.erase(pending_.begin());
            dirty_.erase(batch.back());
        }
    }
    copyKeys(batch);
    if (!pending_.empty())
        return true;
    {
        auto held = hold();
        if (phase_ == Phase::Copy || phase_ == Phase::CatchUp) {
            // Re-copy what was written since; once that delta is small,
            // lock so that the NEXT drain is the last.
            engage = dirty_.size() <= kLockThreshold
                     || ++catchUpRounds_ >= kMaxCatchUpRounds;
            if (!engage)
                phase_ = Phase::CatchUp;
            pending_.swap(dirty_);
        } else if (!dirty_.empty()) {
            pending_.swap(dirty_); // writes in flight at the lock
            return true;
        }
    }
    if (engage) {
        lock();
        return true;
    }
    if (lockedSteps_ >= lockedBound_) {
        abort();
        return false;
    }
    if (drainHeld()) {
        ++lockedSteps_;
        return true;
    }
    setPhase(Phase::Verify);
    std::vector<std::pair<NodeId, Key>> unsettled;
    if (verify(unsettled)) {
        end(true);
        return false;
    }
    if (lockedSteps_++ >= kNudgeAfterSteps) {
        for (const auto &[replica, key] : unsettled)
            runtime_.nudge(replica, key);
    }
    return true;
}

bool
MigrationCoordinator::verify(std::vector<std::pair<NodeId, Key>> &unsettled)
{
    // Operational sources only: a shadow's WAL-restored Invalid entries
    // are no in-flight traces. With none, nothing proves the destination
    // holds every acknowledged write (some may live only in source WALs,
    // which the post-cutover recovery filter skips).
    std::vector<MigrationRuntime::Replica> sources =
        runtime_.sourceReplicas(from_);
    std::erase_if(sources, [](const auto &r) { return r.shadow; });
    if (sources.empty())
        return false;
    // A fresh manifest: writes before the lock may have created keys.
    std::set<Key> current;
    for (const MigrationRuntime::Replica &r : sources) {
        r.store->forEach([&](Key key) {
            if (moving_[slotOfKey(key)])
                current.insert(key);
        });
    }
    bool passed = true;
    for (Key key : current) {
        // An in-flight write leaves a non-Valid trace on at least its
        // coordinator until it commits, and by ack time its value is in
        // every live replica: all-Valid means no unfinished write.
        for (const MigrationRuntime::Replica &r : sources) {
            store::ReadResult read = r.store->read(key);
            if (read.found
                    && static_cast<proto::KeyState>(read.meta.state)
                           != proto::KeyState::Valid) {
                unsettled.emplace_back(r.id, key);
                passed = false;
            }
        }
        // A write admitted before the migration began may have committed
        // after this key's copy.
        store::ReadResult read = sources.front().store->read(key);
        auto it = copiedTs_.find(key);
        if (read.found
                && (it == copiedTs_.end() || !(it->second == read.meta.ts))) {
            pending_.insert(key);
            passed = false;
        }
    }
    return passed;
}

void
MigrationCoordinator::end(bool moved)
{
    if (moved) {
        setPhase(Phase::Cutover);
        runtime_.installSuccessor(slots_, to_);
        slotsMigrated_ += slots_.size();
        ++completed_;
    } else {
        ++aborted_;
    }
    std::vector<std::function<void()>> parked;
    {
        auto held = hold();
        phase_ = Phase::Idle;
        parked.swap(parked_);
        dirty_.clear();
        holds_.clear();
    }
    pending_.clear();
    for (auto &op : parked)
        op();
}

MigrationCoordinator::Hook
MigrationCoordinator::track(Key key, NodeId replica, uint64_t incarnation)
{
    // Dirty the key now — a copy already taken may carry the pre-write
    // value — and again at commit, as a copy may clear the mark between.
    dirty_.insert(key);
    addHold(replica, incarnation);
    return [this, key, gen = gen_, replica, incarnation] {
        auto held = hold();
        if (phase_ != Phase::Idle && gen == gen_)
            dirty_.insert(key);
        release(gen, replica, incarnation);
    };
}

} // namespace hermes::app
