#include "store/kvs.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>

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
} // namespace

KvStore::KvStore(size_t capacity_keys, size_t max_value_size)
    : numBuckets_(roundUpPow2(capacity_keys)),
      maxValueSize_(max_value_size),
      // Room for whole words: the seqlock copies move 8 bytes at a time.
      stride_(sizeof(Entry) + (max_value_size + 7) / 8 * 8),
      slabBytes_(std::max(stride_, kSlabTarget / stride_ * stride_)),
      buckets_(numBuckets_),
      stripes_(kNumStripes)
{
    hermes_assert(max_value_size <= UINT32_MAX); // Entry::len is 32 bits
    for (auto &bucket : buckets_)
        bucket.store(nullptr, std::memory_order_relaxed);
}

size_t
KvStore::arenaBytes() const
{
    SpinGuard guard(arenaLock_);
    return slabs_.size() * slabBytes_;
}

void *
KvStore::carveEntry()
{
    SpinGuard guard(arenaLock_);
    if (slabNext_ == slabEnd_) {
        // Left uninitialized, so a slab's pages become resident only as
        // entries are carved from them.
        slabs_.push_back(std::make_unique_for_overwrite<char[]>(slabBytes_));
        slabNext_ = slabs_.back().get();
        slabEnd_ = slabNext_ + slabBytes_;
    }
    void *mem = slabNext_;
    slabNext_ += stride_;
    return mem;
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
KvStore::insertLocked(Key key)
{
    auto *entry = new (carveEntry()) Entry();
    entry->key = key;
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
        copy_value(entryData(&entry),
                   entry.len.load(std::memory_order_relaxed));
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
