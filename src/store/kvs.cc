#include "store/kvs.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>

#include "store/wal.hh"

namespace hermes::store
{

std::unique_lock<std::mutex>
KvStore::lockRecovery(KeyLockTable &locks, Key key)
{
    return locks.lock(key);
}

namespace
{
size_t
roundUpPow2(size_t v)
{
    return std::bit_ceil(v == 0 ? size_t{1} : v);
}

/** @p bytes rounded up to whole words (seqlock copies move 8 bytes at a
 *  time), and at least one word: the room of an out-of-line value holds
 *  its block's address. */
size_t
roomFor(size_t bytes)
{
    return std::max<size_t>(8, (bytes + 7) / 8 * 8);
}
} // namespace

KvStore::KvStore(size_t capacity_keys, size_t max_value_size)
    : numBuckets_(roundUpPow2(capacity_keys)),
      maxValueSize_(max_value_size),
      buckets_(numBuckets_),
      stripes_(kNumStripes)
{
    hermes_assert(max_value_size < kOutOfLine); // len's top bit is a flag
    for (auto &bucket : buckets_)
        bucket.store(nullptr, std::memory_order_relaxed);
}

size_t
KvStore::arenaBytes() const
{
    SpinGuard guard(arenaLock_);
    return arenaBytes_;
}

char *
KvStore::carve(size_t bytes)
{
    SpinGuard guard(arenaLock_);
    SlabCursor &cursor = cursors_[bytes];
    if (cursor.next == cursor.end) {
        // A whole number of pieces, or one piece if that is larger. Left
        // uninitialized, so a slab's pages become resident only as
        // pieces are carved from them.
        size_t slab_bytes = std::max(bytes, kSlabTarget / bytes * bytes);
        auto slab = std::make_unique_for_overwrite<char[]>(slab_bytes);
        char *start = slab.get();
        slabs_.emplace(start, Slab{std::move(slab), bytes});
        cursor = {start, start + slab_bytes};
        arenaBytes_ += slab_bytes;
    }
    char *piece = cursor.next;
    cursor.next += bytes;
    return piece;
}

size_t
KvStore::pieceBytes(const void *piece) const
{
    SpinGuard guard(arenaLock_);
    // The piece's slab is the last one that starts at or before it.
    auto slab = slabs_.upper_bound(static_cast<const char *>(piece));
    return std::prev(slab)->second.pieceBytes;
}

char *
KvStore::growSlot(Entry &entry, size_t size)
{
    uint32_t len = entry.len.load(std::memory_order_relaxed);
    char *at = valueOf(entry, len);
    size_t capacity = (len & kOutOfLine) ? pieceBytes(at)
                                         : pieceBytes(&entry) - sizeof(Entry);
    if (size <= capacity)
        return at;
    // Geometric growth bounds the blocks a key ever leaves behind to
    // about twice the largest value accepted.
    char *block = carve(std::max(
        roomFor(size), std::min(2 * capacity, roomFor(maxValueSize_))));
    seqlockStore(roomOf(entry), &block, sizeof block);
    return block;
}

KvStore::Entry *
KvStore::findEntry(Key key) const
{
    Entry *entry =
        buckets_[bucketOf(key)].load(std::memory_order_acquire);
    while (entry) {
        if (entry->key == key)
            return entry;
        entry = entry->next;
    }
    return nullptr;
}

KvStore::Entry *
KvStore::insertLocked(Key key, size_t size)
{
    auto *entry = new (carve(sizeof(Entry) + roomFor(size))) Entry();
    entry->key = key;
    // Write-locked until the caller's writeEnd(): a reader that finds the
    // entry waits for its first value and metadata.
    entry->lock.writeBegin();
    std::atomic<Entry *> &head = buckets_[bucketOf(key)];
    entry->next = head.load(std::memory_order_relaxed);
    // Release-publish after the entry is fully initialized so lock-free
    // readers can only ever observe a complete entry.
    head.store(entry, std::memory_order_release);
    size_.fetch_add(1, std::memory_order_relaxed);
    return entry;
}

template <typename CopyValue>
KeyMeta
KvStore::copyEntry(const Entry &entry, CopyValue &&copy_value) const
{
    for (;;) {
        uint32_t snapshot = entry.lock.readBegin();
        if (snapshot % 2 != 0)
            continue; // writer in progress; spin, writes are short
        KeyMeta meta;
        seqlockLoad(&meta, &entry.meta, sizeof(KeyMeta));
        uint32_t len = entry.len.load(std::memory_order_relaxed);
        const char *data = valueOf(entry, len);
        // An out-of-line length is only good with the block it was
        // stored with: check the pair before reading through the block.
        if ((len & kOutOfLine) && !entry.lock.readValidate(snapshot))
            continue;
        copy_value(data, len & kLenMask);
        if (entry.lock.readValidate(snapshot))
            return meta;
    }
}

ReadResult
KvStore::read(Key key) const
{
    ReadResult result;
    const Entry *entry = findEntry(key);
    if (!entry)
        return result;
    result.meta = copyEntry(*entry, [&result](const char *data, size_t len) {
        result.value.resize(len);
        seqlockLoad(result.value.data(), data, len);
    });
    result.found = true;
    return result;
}

template <typename Visit>
ScanStep
KvStore::walk(ScanCursor from, size_t max_entries, Visit &&visit) const
{
    ScanStep step;
    size_t bucket = from.bucket;
    size_t skip = from.skip;
    for (; bucket < numBuckets_; ++bucket, skip = 0) {
        // Resuming counts `skip` entries from the chain's *current* head:
        // entries prepended since the cursor was taken shift it back, so
        // a resumed step may repeat an entry but never skips one.
        const Entry *entry =
            buckets_[bucket].load(std::memory_order_acquire);
        for (size_t i = 0; entry && i < skip; ++i)
            entry = entry->next;
        for (; entry; entry = entry->next, ++skip) {
            if (step.visited == max_entries) {
                step.next = {bucket, skip};
                step.more = true;
                return step;
            }
            ++step.visited;
            visit(*entry);
        }
    }
    step.next = {numBuckets_, 0};
    return step;
}

ScanStep
KvStore::scan(ScanCursor from, size_t max_entries, const ScanFn &fn) const
{
    return walk(from, max_entries, [this, &fn](const Entry &entry) {
        // Copy straight into the block the ValueRef adopts; a retry
        // reuses the block unless the value grew.
        std::shared_ptr<char[]> block;
        size_t capacity = 0;
        size_t size = 0;
        KeyMeta meta = copyEntry(entry, [&](const char *data, size_t len) {
            if (len > capacity) {
                block = std::make_shared_for_overwrite<char[]>(len);
                capacity = len;
            }
            seqlockLoad(block.get(), data, len);
            size = len;
        });
        fn(entry.key, meta, ValueRef::adopt(std::move(block), size));
    });
}

ScanStep
KvStore::seek(size_t entries) const
{
    return walk({}, entries, [](const Entry &) {});
}

void
KvStore::forEach(const std::function<void(Key)> &fn) const
{
    walk({}, SIZE_MAX, [&fn](const Entry &entry) { fn(entry.key); });
}

} // namespace hermes::store
