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
 * Values live inline in the entry (capacity fixed at construction) so a
 * reader's copy can never chase storage a writer is reallocating.
 *
 * Memory layout: an entry is a 40-byte header followed by the value
 * capacity rounded up to whole words; that stride is a multiple of 8.
 * Since no entry is ever freed before the store, entries are not
 * allocated one by one: they are carved, in insertion order, from
 * store-owned slabs of about 256 KiB (a whole number of strides, or one
 * stride if that is larger), and the slabs are freed all at once with
 * the store. The store's footprint is therefore bounded by construction:
 * at most size() strides plus one partly carved slab (arenaBytes()).
 */

#ifndef HERMES_STORE_KVS_HH
#define HERMES_STORE_KVS_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
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

/** Writer-side view of one entry, valid only inside withKey's closure. */
class KeyRecord
{
  public:
    /** Protocol metadata (mutable; published when withKey returns). */
    KeyMeta &meta() { return meta_; }

    /** Current value bytes. */
    std::string_view
    value() const
    {
        return {data_, len_->load(std::memory_order_relaxed)};
    }

    /** Replace the value (must fit the store's value capacity). */
    void
    setValue(std::string_view v)
    {
        hermes_assert(v.size() <= cap_);
        // On the zero-copy receive path this is the value's ONLY copy
        // after the wire: the decoded message aliases the transport slab
        // and the bytes land here, under the seqlock, exactly once. An
        // empty value (possibly a null data()) copies no word.
        ValueCopyCounters::countStoreCopy();
        seqlockStore(data_, v.data(), v.size());
        len_->store(static_cast<uint32_t>(v.size()),
                    std::memory_order_relaxed);
    }

    /** @return true if the key existed before this access. */
    bool existed() const { return existed_; }

  private:
    friend class KvStore;
    KeyRecord(const KeyMeta &meta, char *data, std::atomic<uint32_t> *len,
              size_t cap, bool existed)
        : meta_(meta), data_(data), len_(len), cap_(cap), existed_(existed)
    {}

    KeyMeta meta_;
    char *data_;
    std::atomic<uint32_t> *len_;
    size_t cap_;
    bool existed_;
};

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
 * Concurrent chained hash table with inline values.
 */
class KvStore
{
  public:
    /**
     * @param capacity_keys   expected number of distinct keys (sizes the
     *                        bucket array; exceeding it only lengthens
     *                        chains, it does not break the store)
     * @param max_value_size  inline value capacity per entry (< 4 GiB)
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
     * respect to readers and other writers.
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
        bool existed = true;
        Entry *entry = findEntry(key);
        if (!entry) {
            entry = insertLocked(key);
            existed = false;
        }
        entry->lock.writeBegin();
        KeyRecord rec(entry->meta, entryData(entry), &entry->len,
                      maxValueSize_, existed);
        auto publish = [&] {
            seqlockStore(&entry->meta, &rec.meta_, sizeof(KeyMeta));
            entry->lock.writeEnd();
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

    /** Inline value capacity. */
    size_t maxValueSize() const { return maxValueSize_; }

    /** Bytes of entry slabs the store holds (see the layout note above). */
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
    struct Entry
    {
        Entry *next = nullptr; // immutable after publication
        Key key = 0;
        Seqlock lock;
        // Seqlock-guarded: len, meta and the value bytes, which follow
        // the struct inline, padded to whole words for seqlockStore().
        std::atomic<uint32_t> len{0};
        alignas(8) KeyMeta meta{};
    };
    static_assert(sizeof(Entry) == 40, "lock and len share one word");
    static_assert(std::is_trivially_destructible_v<Entry>,
                  "slabs are freed without destroying their entries");

    char *
    entryData(Entry *entry) const
    {
        return reinterpret_cast<char *>(entry) + sizeof(Entry);
    }

    const char *
    entryData(const Entry *entry) const
    {
        return reinterpret_cast<const char *>(entry) + sizeof(Entry);
    }

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
     * @p copy_value, called with the entry's bytes) under its seqlock,
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

    /** Carve, initialize and publish a new entry (stripe lock held). */
    Entry *insertLocked(Key key);

    /** Carve one entry stride from the current slab, starting a new slab
     *  when it is used up. */
    void *carveEntry();

    size_t numBuckets_;
    size_t maxValueSize_;
    size_t stride_;    ///< bytes per entry: header + value words
    size_t slabBytes_; ///< a whole number of strides
    std::vector<std::atomic<Entry *>> buckets_;
    mutable std::vector<Spinlock> stripes_;
    std::atomic<size_t> size_{0};
    Wal *wal_ = nullptr;
    std::atomic<KeyLockTable *> recoveryLocks_{nullptr};

    // The entry arena. Inserters under different stripes carve from it
    // concurrently, so the bump pointer and the slab list sit behind
    // their own lock; readers never touch it.
    mutable Spinlock arenaLock_;
    std::vector<std::unique_ptr<char[]>> slabs_; ///< freed with the store
    char *slabNext_ = nullptr;
    char *slabEnd_ = nullptr;

    static constexpr size_t kNumStripes = 1024;
    static constexpr size_t kSlabTarget = 256 << 10;
};

} // namespace hermes::store

#endif // HERMES_STORE_KVS_HH
