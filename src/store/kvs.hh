/**
 * @file
 * The in-memory KVS substrate (paper §4.1): a hash table with seqlock
 * lock-free readers and striped-spinlock writers, extended with the
 * per-key protocol metadata Hermes and the baselines keep next to each
 * value (state, logical timestamp, flags).
 *
 * Concurrency discipline (CRCW, as in ccKVS):
 *  - readers (`read`, `scan`) walk bucket chains and copy entries under
 *    their seqlocks; they never block and never take locks;
 *  - writers (`withKey`) take the bucket's stripe spinlock, then flip the
 *    entry's seqlock around the mutation, so readers observe either the
 *    old or the new version, never a torn one.
 *
 * Safety of lock-free traversal rests on four store invariants:
 *  - entries are only ever *prepended* (head is published with release
 *    after the entry is fully initialized);
 *  - `next` pointers are immutable after publication;
 *  - keys are never deleted — the replication protocols here have no
 *    delete operation, matching the paper's read/write/RMW API — so an
 *    entry's memory lives as long as the store;
 *  - the seqlock-guarded bytes (length, metadata, value) move only by
 *    seqlockStore()/seqlockLoad() words.
 * No value storage is freed or handed to another key before the store
 * either, so a reader's copy can never chase storage a writer released:
 * at worst it copies stale bytes, and its seqlock validation fails.
 *
 * Memory layout: an entry is a 40-byte header followed by its inline
 * room, sized to the first value the entry stores, rounded up to whole
 * words (at least one word: a key inserted without a value gets one).
 * `max_value_size` caps the values accepted, not the room. A later value
 * that does not fit moves to an out-of-line block: the top bit of the
 * entry's length marks it, and the room's first word holds the block's
 * address. A block grows geometrically, at least doubling up to
 * `max_value_size` (in whole words), when a larger value arrives, and an
 * entry keeps its block once it has one, so a value that crosses its
 * room back and forth carves nothing more. Relocating the entry instead
 * would prepend a second entry to its chain and change scan order.
 *
 * Since nothing is freed before the store, entries and blocks are not
 * allocated one by one: they are carved, in order, from store-owned
 * slabs of about 256 KiB, each a whole number of pieces of one size (an
 * entry header plus its room, or a block), or one piece if that is
 * larger. The arena maps each slab's address to its piece size, so a
 * writer finds an entry's room or a block's capacity from the piece's
 * address, without a field in the entry. The slabs are freed all at
 * once with the store. The store's footprint is therefore bounded by
 * construction: the pieces carved plus one partly carved slab per piece
 * size in use (arenaBytes()).
 */

#ifndef HERMES_STORE_KVS_HH
#define HERMES_STORE_KVS_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/timestamp.hh"
#include "common/types.hh"
#include "common/value_ref.hh"
#include "store/seqlock.hh"

namespace hermes::store
{

class Wal;          // store/wal.hh
class KeyLockTable; // store/wal.hh

/**
 * Per-key replication metadata stored alongside the value. The KVS does
 * not interpret it: `state` and `flags` carry each protocol's per-key
 * state machine (Hermes: Valid/Invalid/Write/Replay/Trans + RMW flag;
 * CRAQ: clean/dirty + committed version in aux).
 */
struct KeyMeta
{
    Timestamp ts{};      ///< logical timestamp of the stored value
    uint8_t state = 0;   ///< protocol-defined state enum
    uint8_t flags = 0;   ///< protocol-defined flag bits
    uint16_t pad = 0;
    uint32_t aux = 0;    ///< protocol-defined (e.g. CRAQ committed version)
};
static_assert(sizeof(KeyMeta) == 16, "KeyMeta is copied under seqlocks");

/** Result of a lock-free read. */
struct ReadResult
{
    bool found = false;
    KeyMeta meta{};
    Value value;
};

/**
 * Where a chunked scan (`KvStore::scan`) resumes: a bucket, and how many
 * entries at the head of that bucket's chain the scan already passed.
 */
struct ScanCursor
{
    size_t bucket = 0;
    size_t skip = 0;
};

/** Outcome of one `KvStore::scan` or `KvStore::seek` step. */
struct ScanStep
{
    ScanCursor next;    ///< where the following step resumes
    size_t visited = 0; ///< entries this step passed
    bool more = false;  ///< an entry lies at or beyond `next`
};

/**
 * Concurrent chained hash table; each value lives in its entry's inline
 * room or, once it outgrows that room, in a block the entry points to.
 */
class KvStore
{
    struct Entry
    {
        Entry *next = nullptr; // immutable after publication
        Key key = 0;
        Seqlock lock;
        // Seqlock-guarded: len, meta and the value bytes. The room
        // follows the struct inline, padded to whole words for
        // seqlockStore(); when len has kOutOfLine set, the room's first
        // word holds the address of the block the value lives in.
        std::atomic<uint32_t> len{0};
        alignas(8) KeyMeta meta{};
    };
    static_assert(sizeof(Entry) == 40, "lock and len share one word");
    static_assert(std::is_trivially_destructible_v<Entry>,
                  "slabs are freed without destroying their entries");

  public:
    /**
     * Writer-side view of one entry, valid only inside withKey's closure.
     */
    class KeyRecord
    {
      public:
        /** Protocol metadata (mutable; published when withKey returns). */
        KeyMeta &meta() { return meta_; }

        /** Current value bytes. */
        std::string_view
        value() const
        {
            if (!entry_)
                return {};
            uint32_t len = entry_->len.load(std::memory_order_relaxed);
            return {valueOf(*entry_, len), len & kLenMask};
        }

        /** Replace the value (at most the store's maxValueSize()). */
        void
        setValue(std::string_view v)
        {
            hermes_assert(v.size() <= store_.maxValueSize_);
            // On the zero-copy receive path this is the value's ONLY copy
            // after the wire: the decoded message aliases the transport
            // slab and the bytes land here, under the seqlock, exactly
            // once. An empty value (possibly a null data()) copies no
            // word.
            ValueCopyCounters::countStoreCopy();
            char *dst = store_.valueSlot(key_, entry_, v.size());
            seqlockStore(dst, v.data(), v.size());
            uint32_t out_of_line = dst == roomOf(*entry_) ? 0 : kOutOfLine;
            entry_->len.store(static_cast<uint32_t>(v.size()) | out_of_line,
                              std::memory_order_relaxed);
        }

        /** @return true if the key existed before this access. */
        bool existed() const { return existed_; }

      private:
        friend class KvStore;
        KeyRecord(KvStore &store, Key key, Entry *entry)
            : store_(store), key_(key), entry_(entry),
              meta_(entry ? entry->meta : KeyMeta{}), existed_(entry != nullptr)
        {}

        KvStore &store_;
        Key key_;
        Entry *entry_; ///< null until a missing key's entry is carved
        KeyMeta meta_;
        bool existed_;
    };

    /**
     * @param capacity_keys   expected number of distinct keys (sizes the
     *                        bucket array; exceeding it only lengthens
     *                        chains, it does not break the store)
     * @param max_value_size  largest value accepted (< 2 GiB); an entry's
     *                        room follows the values it holds, not this
     */
    KvStore(size_t capacity_keys, size_t max_value_size);

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    /**
     * Lock-free read of key and its metadata via the entry seqlock.
     * Safe to call concurrently with writers from any thread.
     */
    ReadResult read(Key key) const;

    /**
     * Run @p fn on the (possibly fresh) record of @p key with the stripe
     * lock held and the entry seqlock flipped around it. @p fn must be
     * short and non-blocking. Returns @p fn 's result.
     *
     * This is the primitive every protocol transition uses: compare the
     * local timestamp, maybe update value/state, all atomically with
     * respect to readers and other writers. A missing key is inserted
     * whether or not @p fn sets a value.
     */
    template <typename F>
    auto
    withKey(Key key, F &&fn)
    {
        // Recovery-vs-live-write fence: while a WAL replay is in
        // progress (restart window only) every mutation serializes with
        // the replay of the same key through the per-key lock table.
        // Steady state pays one predictable-null pointer check.
        std::unique_lock<std::mutex> recovery_guard;
        if (KeyLockTable *locks =
                recoveryLocks_.load(std::memory_order_acquire))
            recovery_guard = lockRecovery(*locks, key);
        SpinGuard guard(stripes_[stripeOf(key)]);
        Entry *entry = findEntry(key);
        if (entry)
            entry->lock.writeBegin();
        // A missing key's entry is carved once its room is known: at
        // the closure's first setValue(), or here with one word of room
        // when the closure sets no value.
        KeyRecord rec(*this, key, entry);
        auto publish = [&] {
            if (!rec.entry_)
                rec.entry_ = insertLocked(key, 0);
            seqlockStore(&rec.entry_->meta, &rec.meta_, sizeof(KeyMeta));
            rec.entry_->lock.writeEnd();
        };
        if constexpr (std::is_void_v<decltype(fn(rec))>) {
            fn(rec);
            publish();
        } else {
            auto result = fn(rec);
            publish();
            return result;
        }
    }

    /** Receives each scanned entry; the value is the entry's own copy. */
    using ScanFn = std::function<void(Key, const KeyMeta &, ValueRef)>;

    /**
     * Visit up to @p max_entries entries from @p from on, in bucket then
     * chain order, and report where the next step resumes. Each entry is
     * copied under its seqlock straight into the ValueRef handed to
     * @p fn, so a step holds at most the entries it visits.
     *
     * The scan is fuzzy, never frozen: it runs lock-free beside writers.
     * Chains are prepend-only and keys are never deleted, so an entry
     * inserted into an already-passed part of the table is not visited,
     * and one inserted at the head of the cursor's chain makes the
     * resumed step repeat an entry, but an entry present when the scan
     * started is never skipped. `more` looks ahead: it is false only
     * when no entry lies beyond the step (used for state transfer to
     * shadow replicas, §3.4).
     */
    ScanStep scan(ScanCursor from, size_t max_entries,
                  const ScanFn &fn) const;

    /**
     * The cursor @p entries entries past the start of the table: the
     * same walk as scan(), copying no value.
     */
    ScanStep seek(size_t entries) const;

    /**
     * Visit every present key: the walk of scan() with no entry limit,
     * copying no value. Keys appearing during the iteration may or may
     * not be visited. Used by migration manifests.
     */
    void forEach(const std::function<void(Key)> &fn) const;

    /** Number of distinct keys inserted so far. */
    size_t size() const { return size_.load(std::memory_order_relaxed); }

    /** Largest value accepted. */
    size_t maxValueSize() const { return maxValueSize_; }

    /** Bytes of slabs the store holds (see the layout note above). */
    size_t arenaBytes() const;

    /**
     * Attach (or detach, with nullptr) the replica's write-ahead log.
     * Non-owning: the ReplicaHandle owns the Wal and wires its flush to
     * the Env's poll boundary. Protocol engines consult wal() at their
     * value-apply sites to persist before acknowledging.
     */
    void setWal(Wal *wal) { wal_ = wal; }
    Wal *wal() const { return wal_; }

    /**
     * Arm/disarm the per-key recovery lock table (restart replay only;
     * see KeyLockTable). The store does not own the table.
     */
    void
    setRecoveryLocks(KeyLockTable *locks)
    {
        recoveryLocks_.store(locks, std::memory_order_release);
    }

  private:
    /** Set in Entry::len while the value lives in an out-of-line block. */
    static constexpr uint32_t kOutOfLine = uint32_t{1} << 31;
    static constexpr uint32_t kLenMask = kOutOfLine - 1;

    /** The room behind @p entry 's header (never const storage). */
    static char *
    roomOf(const Entry &entry)
    {
        return const_cast<char *>(reinterpret_cast<const char *>(&entry))
               + sizeof(Entry);
    }

    /**
     * Where the value of @p entry lives while its length word reads
     * @p len: the room, or the block whose address the room holds. A
     * reader pairs the two under its seqlock before reading a block.
     */
    static char *
    valueOf(const Entry &entry, uint32_t len)
    {
        char *room = roomOf(entry);
        if (!(len & kOutOfLine))
            return room;
        char *block;
        seqlockLoad(&block, room, sizeof block);
        return block;
    }

    /**
     * Where a @p size -byte value of @p key goes (entry write-locked, or
     * null for a missing key, which this carves): where the value lives
     * now if it fits there, else a block from growSlot().
     */
    char *
    valueSlot(Key key, Entry *&entry, size_t size)
    {
        if (!entry) {
            entry = insertLocked(key, size);
            return roomOf(*entry);
        }
        uint32_t len = entry->len.load(std::memory_order_relaxed);
        if (size <= (len & kLenMask))
            return valueOf(*entry, len);
        return growSlot(*entry, size);
    }

    /** valueSlot() for a value longer than the current one: the room or
     *  block if it still fits, else a larger block the room now names. */
    char *growSlot(Entry &entry, size_t size);

    size_t
    bucketOf(Key key) const
    {
        return mix64(key) & (numBuckets_ - 1);
    }

    size_t
    stripeOf(Key key) const
    {
        return bucketOf(key) & (kNumStripes - 1);
    }

    /** Take @p key 's stripe in @p locks (out of line: wal.hh is not a
     *  header dependency of every KVS user). */
    static std::unique_lock<std::mutex> lockRecovery(KeyLockTable &locks,
                                                     Key key);

    /** Lock-free chain walk; returns nullptr if absent. */
    Entry *findEntry(Key key) const;

    /**
     * Copy @p entry 's metadata (returned) and value (through
     * @p copy_value, called with the value's bytes) under its seqlock,
     * retrying until a copy validates. The one seqlock reader loop.
     */
    template <typename CopyValue>
    KeyMeta copyEntry(const Entry &entry, CopyValue &&copy_value) const;

    /**
     * The one table walk behind scan(), seek() and forEach(): pass up to
     * @p max_entries entries from @p from on, calling @p visit on each.
     */
    template <typename Visit>
    ScanStep walk(ScanCursor from, size_t max_entries, Visit &&visit) const;

    /**
     * Carve an entry with room for a @p size -byte value, then initialize
     * and publish it write-locked (stripe lock held; the caller's
     * writeEnd() releases it).
     */
    Entry *insertLocked(Key key, size_t size);

    /** Carve @p bytes (a whole number of words) from the slab of that
     *  piece size, starting a new slab when it is used up. */
    char *carve(size_t bytes);

    /** Bytes of the piece at @p piece: its slab's piece size. */
    size_t pieceBytes(const void *piece) const;

    /** Where the next piece of one size is carved. */
    struct SlabCursor
    {
        char *next = nullptr;
        char *end = nullptr;
    };

    /** One slab and the size of the pieces carved from it. */
    struct Slab
    {
        std::unique_ptr<char[]> bytes;
        size_t pieceBytes;
    };

    size_t numBuckets_;
    size_t maxValueSize_;
    std::vector<std::atomic<Entry *>> buckets_;
    mutable std::vector<Spinlock> stripes_;
    std::atomic<size_t> size_{0};
    Wal *wal_ = nullptr;
    std::atomic<KeyLockTable *> recoveryLocks_{nullptr};

    // The arena. Writers under different stripes carve from it
    // concurrently, so the cursors and the slabs sit behind their own
    // lock; readers never touch it.
    mutable Spinlock arenaLock_;
    std::map<const char *, Slab> slabs_; ///< by address; freed with the store
    std::unordered_map<size_t, SlabCursor> cursors_; ///< by piece size
    size_t arenaBytes_ = 0;

    static constexpr size_t kNumStripes = 1024;
    static constexpr size_t kSlabTarget = 256 << 10;
};

using KeyRecord = KvStore::KeyRecord;

} // namespace hermes::store

#endif // HERMES_STORE_KVS_HH

