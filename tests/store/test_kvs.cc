/**
 * @file
 * KVS substrate: CRCW correctness — seqlock readers must never observe a
 * torn record while striped writers mutate (paper §4.1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "store/kvs.hh"
#include "support/str_cat.hh"

namespace hermes::store
{
namespace
{

TEST(KvStore, MissingKeyNotFound)
{
    KvStore kvs(1024, 64);
    EXPECT_FALSE(kvs.read(42).found);
    EXPECT_EQ(kvs.size(), 0u);
}

TEST(KvStore, WriteThenRead)
{
    KvStore kvs(1024, 64);
    kvs.withKey(42, [](KeyRecord &rec) {
        rec.setValue("hello");
        rec.meta().ts = {1, 0};
        rec.meta().state = 2;
    });
    ReadResult r = kvs.read(42);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.value, "hello");
    EXPECT_EQ(r.meta.ts, (Timestamp{1, 0}));
    EXPECT_EQ(r.meta.state, 2);
    EXPECT_EQ(kvs.size(), 1u);
}

TEST(KvStore, ExistedFlag)
{
    KvStore kvs(64, 16);
    bool first = kvs.withKey(7, [](KeyRecord &rec) { return rec.existed(); });
    bool second = kvs.withKey(7, [](KeyRecord &rec) { return rec.existed(); });
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
}

TEST(KvStore, OverwriteReplacesValue)
{
    KvStore kvs(64, 32);
    kvs.withKey(1, [](KeyRecord &rec) { rec.setValue("first"); });
    kvs.withKey(1, [](KeyRecord &rec) { rec.setValue("second!"); });
    EXPECT_EQ(kvs.read(1).value, "second!");
    EXPECT_EQ(kvs.size(), 1u);
}

TEST(KvStore, ValueShrinksAndGrows)
{
    KvStore kvs(64, 32);
    kvs.withKey(1, [](KeyRecord &rec) { rec.setValue("0123456789"); });
    kvs.withKey(1, [](KeyRecord &rec) { rec.setValue("ab"); });
    EXPECT_EQ(kvs.read(1).value, "ab");
    kvs.withKey(1, [](KeyRecord &rec) {
        rec.setValue(std::string(32, 'z'));
    });
    EXPECT_EQ(kvs.read(1).value, std::string(32, 'z'));
}

TEST(KvStore, WithKeyReturnsClosureResult)
{
    KvStore kvs(64, 16);
    kvs.withKey(5, [](KeyRecord &rec) { rec.meta().aux = 17; });
    uint32_t aux = kvs.withKey(5, [](KeyRecord &rec) {
        return rec.meta().aux;
    });
    EXPECT_EQ(aux, 17u);
}

TEST(KvStore, ManyKeysChainInBuckets)
{
    KvStore kvs(16, 16); // tiny bucket array forces chains
    for (Key k = 0; k < 1000; ++k) {
        kvs.withKey(k, [k](KeyRecord &rec) {
            rec.setValue(std::to_string(k));
        });
    }
    EXPECT_EQ(kvs.size(), 1000u);
    for (Key k = 0; k < 1000; ++k)
        EXPECT_EQ(kvs.read(k).value, std::to_string(k)) << "key " << k;
}

TEST(KvStore, ForEachVisitsAllKeys)
{
    KvStore kvs(256, 16);
    for (Key k = 10; k < 20; ++k)
        kvs.withKey(k, [](KeyRecord &rec) { rec.setValue("x"); });
    size_t visited = 0;
    uint64_t key_sum = 0;
    kvs.forEach([&](Key k) {
        ++visited;
        key_sum += k;
        EXPECT_EQ(kvs.read(k).value, "x");
    });
    EXPECT_EQ(visited, 10u);
    EXPECT_EQ(key_sum, 145u); // 10+...+19
}

/** Keys of a full scan from @p from, in visiting order. */
std::vector<Key>
scanKeys(const KvStore &kvs, ScanCursor from = {})
{
    std::vector<Key> keys;
    ScanStep step = kvs.scan(from, SIZE_MAX,
                             [&keys](Key k, const KeyMeta &, ValueRef) {
                                 keys.push_back(k);
                             });
    EXPECT_FALSE(step.more);
    EXPECT_EQ(step.visited, keys.size());
    return keys;
}

TEST(KvStore, ScanResumesAtEveryCursorVisitingEachKeyOnce)
{
    KvStore kvs(16, 16); // 16 buckets for 192 keys: long chains
    static constexpr Key kKeys = 192;
    for (Key k = 0; k < kKeys; ++k)
        kvs.withKey(k, [k](KeyRecord &rec) {
            rec.setValue(std::to_string(k));
        });
    const std::vector<Key> order = scanKeys(kvs);
    ASSERT_EQ(order.size(), kKeys);

    // Every position: seek there, resume, and get exactly the rest.
    for (size_t p = 0; p <= kKeys; ++p) {
        ScanStep at = kvs.seek(p);
        EXPECT_EQ(at.visited, p);
        EXPECT_EQ(at.more, p < kKeys);
        std::vector<Key> rest = scanKeys(kvs, at.next);
        EXPECT_TRUE(std::equal(rest.begin(), rest.end(), order.begin() + p,
                               order.end()))
            << "position " << p;
    }

    // Every chunk size: chunked steps visit each key once, with values,
    // and the last step is the one reporting no more (a store that is a
    // multiple of the chunk size gets no trailing empty step).
    for (size_t chunk = 1; chunk <= kKeys + 1; ++chunk) {
        std::vector<int> seen(kKeys, 0);
        ScanCursor cursor;
        size_t steps = 0;
        for (bool more = true; more;) {
            ScanStep step = kvs.scan(
                cursor, chunk,
                [&seen](Key k, const KeyMeta &, ValueRef v) {
                    ASSERT_LT(k, kKeys);
                    EXPECT_EQ(v, std::to_string(k));
                    ++seen[k];
                });
            EXPECT_EQ(step.visited,
                      step.more ? chunk : (kKeys - 1) % chunk + 1);
            ++steps;
            more = step.more;
            cursor = step.next;
        }
        EXPECT_EQ(steps, (kKeys + chunk - 1) / chunk) << "chunk " << chunk;
        for (Key k = 0; k < kKeys; ++k)
            EXPECT_EQ(seen[k], 1) << "chunk " << chunk << " key " << k;
    }
}

TEST(KvStore, ScanOfEmptyStoreVisitsNothing)
{
    KvStore kvs(16, 16);
    ScanStep step = kvs.scan({}, 64, [](Key, const KeyMeta &, ValueRef) {
        ADD_FAILURE() << "empty store yielded an entry";
    });
    EXPECT_EQ(step.visited, 0u);
    EXPECT_FALSE(step.more);
}

TEST(KvStore, InsertIntoScannedChainRepeatsButNeverSkips)
{
    KvStore kvs(1, 16); // one bucket: every key shares one chain
    for (Key k = 0; k < 10; ++k)
        kvs.withKey(k, [](KeyRecord &rec) { rec.setValue("x"); });

    std::vector<Key> visited;
    auto collect = [&visited](Key k, const KeyMeta &, ValueRef) {
        visited.push_back(k);
    };
    ScanStep first = kvs.scan({}, 4, collect);
    ASSERT_EQ(first.visited, 4u);
    ASSERT_TRUE(first.more);

    // Prepended behind the cursor: the resumed scan starts one entry
    // earlier, so it repeats the last entry it already visited.
    kvs.withKey(100, [](KeyRecord &rec) { rec.setValue("new"); });
    ScanStep rest = kvs.scan(first.next, SIZE_MAX, collect);
    EXPECT_FALSE(rest.more);

    std::vector<int> seen(10, 0);
    for (Key k : visited) {
        EXPECT_NE(k, 100u) << "an entry inserted behind the cursor";
        if (k < 10)
            ++seen[k];
    }
    int repeats = 0;
    for (Key k = 0; k < 10; ++k) {
        EXPECT_GE(seen[k], 1) << "pre-existing key " << k << " skipped";
        repeats += seen[k] - 1;
    }
    EXPECT_EQ(repeats, 1);
    EXPECT_EQ(visited[4], visited[3]);
}

/** A chunked scanner racing writers and inserters never sees a torn entry. */
TEST(KvStore, ChunkedScanRacingWritersNeverSeesTornValues)
{
    KvStore kvs(8, 64); // 8 buckets: the scanner walks chains writers grow
    constexpr Key kHot = 16;
    for (Key k = 0; k < kHot; ++k)
        kvs.withKey(k, [](KeyRecord &rec) {
            rec.setValue(std::string(48, 'A'));
        });

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> torn{0};
    std::atomic<uint64_t> scanned{0};
    std::atomic<bool> scanning{false};
    std::thread scanner([&] {
        while (!stop.load(std::memory_order_acquire)) {
            scanning.store(true, std::memory_order_release);
            ScanCursor cursor;
            for (bool more = true; more;) {
                ScanStep step = kvs.scan(
                    cursor, 3, [&](Key, const KeyMeta &meta, ValueRef v) {
                        ++scanned;
                        // A fresh key is published write-locked, with
                        // its first value: no scan sees it empty.
                        char expected = 'A' + static_cast<char>(
                            meta.ts.version % 26);
                        if (v.size() != 48
                                || v.view().find_first_not_of(expected)
                                       != std::string_view::npos)
                            ++torn;
                    });
                more = step.more;
                cursor = step.next;
            }
        }
    });

    std::thread writer([&] {
        while (!scanning.load(std::memory_order_acquire)) {
        }
        for (uint32_t v = 1; v <= 50000; ++v) {
            Key key = v % kHot;
            // Every 64th write also inserts a fresh key mid-scan.
            if (v % 64 == 0)
                key = 1000 + v;
            kvs.withKey(key, [v](KeyRecord &rec) {
                rec.meta().ts.version = v;
                rec.setValue(
                    std::string(48, 'A' + static_cast<char>(v % 26)));
            });
        }
    });
    writer.join();
    stop.store(true, std::memory_order_release);
    scanner.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(scanned.load(), 0u);
}

/**
 * The CRCW torture test: concurrent writers bump (counter, payload) pairs
 * where the payload deterministically derives from the counter; readers
 * must never see a pair that disagrees — that would be a torn read.
 */
TEST(KvStore, SeqlockReadersNeverSeeTornWrites)
{
    KvStore kvs(64, 64);
    constexpr Key kKey = 3;
    constexpr int kWrites = 20000;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> torn{0};
    std::atomic<uint64_t> reads{0};

    kvs.withKey(kKey, [](KeyRecord &rec) {
        rec.meta().ts = {0, 0};
        rec.setValue(std::string(48, 'A'));
    });

    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                ReadResult r = kvs.read(kKey);
                if (!r.found)
                    continue;
                ++reads;
                // Payload byte must match version % 26.
                char expected = 'A' + static_cast<char>(
                    r.meta.ts.version % 26);
                for (char c : r.value) {
                    if (c != expected) {
                        ++torn;
                        break;
                    }
                }
            }
        });
    }

    std::vector<std::thread> writers;
    std::atomic<uint32_t> version{0};
    for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < kWrites; ++i) {
                uint32_t v = version.fetch_add(1) + 1;
                kvs.withKey(kKey, [v](KeyRecord &rec) {
                    if (rec.meta().ts.version >= v)
                        return;
                    rec.meta().ts.version = v;
                    rec.setValue(std::string(
                        48, 'A' + static_cast<char>(v % 26)));
                });
            }
        });
    }
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
}

/**
 * Inserters on every stripe roll the arena over several slabs while a
 * reader runs point reads and chunked scans: every key lands once with
 * its own value, and the reader never sees another key's value.
 */
TEST(KvStore, ConcurrentInsertions)
{
    KvStore kvs(1 << 14, 16); // 56-byte stride: ~9 slabs for 40k keys
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    static constexpr Key kKeys = Key{kThreads} * kPerThread;
    std::atomic<bool> reading{false};
    std::atomic<int> inserting{kThreads};
    std::atomic<uint64_t> wrong{0};
    std::atomic<uint64_t> scanned{0};
    std::thread reader([&] {
        // A fresh key is published write-locked, with its first value:
        // a visible entry holds its own key's value.
        auto check = [&wrong](Key k, std::string_view v) {
            if (k >= kKeys || v != std::to_string(k))
                ++wrong;
        };
        reading.store(true, std::memory_order_release);
        Key probe = 0;
        do {
            probe = (probe + 7919) % kKeys;
            ReadResult r = kvs.read(probe);
            if (r.found)
                check(probe, r.value);
            ScanCursor cursor;
            for (bool more = true; more;) {
                ScanStep step = kvs.scan(
                    cursor, 64, [&](Key k, const KeyMeta &, ValueRef v) {
                        ++scanned;
                        check(k, v.view());
                    });
                more = step.more;
                cursor = step.next;
            }
        } while (inserting.load(std::memory_order_acquire) > 0);
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&kvs, &reading, &inserting, t] {
            while (!reading.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kPerThread; ++i) {
                Key k = static_cast<Key>(t) * kPerThread + i;
                kvs.withKey(k, [k](KeyRecord &rec) {
                    rec.setValue(std::to_string(k));
                });
            }
            inserting.fetch_sub(1, std::memory_order_release);
        });
    }
    for (auto &t : threads)
        t.join();
    reader.join();
    EXPECT_EQ(kvs.size(), kKeys);
    for (Key k = 0; k < kKeys; ++k)
        ASSERT_EQ(kvs.read(k).value, std::to_string(k)) << "key " << k;
    std::vector<int> seen(kKeys, 0);
    kvs.forEach([&seen](Key k) {
        ASSERT_LT(k, kKeys);
        ++seen[k];
    });
    for (Key k = 0; k < kKeys; ++k)
        ASSERT_EQ(seen[k], 1) << "key " << k;
    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_GT(scanned.load(), 0u);
}

/** Bytes one entry takes in the arena: the 40-byte header plus room for
 *  the first value it held, @p value_size bytes, in whole words (at
 *  least one). */
size_t
entryStride(size_t value_size)
{
    return 40 + std::max<size_t>(8, (value_size + 7) / 8 * 8);
}

constexpr size_t kSlab = 256 << 10;

TEST(KvStore, KeysAcrossManySlabsReadBackAndScanOnce)
{
    KvStore kvs(64, 64); // 64 buckets: long chains through every slab
    // Each value, k * 31 in decimal, fits one word of room.
    const Key keys = 6 * kSlab / entryStride(8); // > 5 slabs of entries
    for (Key k = 0; k < keys; ++k)
        kvs.withKey(k, [k](KeyRecord &rec) {
            rec.setValue(std::to_string(k * 31));
        });
    ASSERT_EQ(kvs.size(), keys);
    EXPECT_GE(kvs.arenaBytes(), 5 * kSlab);
    for (Key k = 0; k < keys; ++k)
        ASSERT_EQ(kvs.read(k).value, std::to_string(k * 31)) << "key " << k;

    std::vector<int> seen(keys, 0);
    ScanStep step = kvs.scan({}, SIZE_MAX,
                             [&](Key k, const KeyMeta &, ValueRef v) {
                                 ASSERT_LT(k, keys);
                                 EXPECT_EQ(v, std::to_string(k * 31));
                                 ++seen[k];
                             });
    EXPECT_EQ(step.visited, keys);
    EXPECT_FALSE(step.more);
    for (Key k = 0; k < keys; ++k)
        ASSERT_EQ(seen[k], 1) << "key " << k;
}

/** An entry wider than the default slab gets a slab of its own. */
TEST(KvStore, EntryLargerThanSlabGetsItsOwnSlab)
{
    constexpr size_t kCap = 512 << 10;
    KvStore kvs(4, kCap);
    for (Key k = 0; k < 3; ++k)
        kvs.withKey(k, [k](KeyRecord &rec) {
            rec.setValue(std::string(kCap, static_cast<char>('a' + k)));
        });
    EXPECT_EQ(kvs.arenaBytes(), 3 * entryStride(kCap));
    for (Key k = 0; k < 3; ++k)
        EXPECT_EQ(kvs.read(k).value,
                  std::string(kCap, static_cast<char>('a' + k)));
}

/** The footprint bound: slabs hold the entries plus at most one slab. */
TEST(KvStore, ArenaBytesBoundedBySizeTimesStridePlusOneSlab)
{
    for (size_t cap : {size_t{0}, size_t{1}, size_t{8}, size_t{64},
                       size_t{1000}, size_t{4096}}) {
        KvStore kvs(1024, cap);
        EXPECT_EQ(kvs.arenaBytes(), 0u) << "an empty store holds no slab";
        // Every key holds a value of the store's maximum size.
        const size_t stride = entryStride(cap);
        const std::string value(cap, 'v');
        for (Key k = 0; k < 5000; ++k) {
            kvs.withKey(k, [&value](KeyRecord &rec) { rec.setValue(value); });
            size_t entries = kvs.size() * stride;
            ASSERT_GE(kvs.arenaBytes(), entries) << "cap " << cap;
            ASSERT_LE(kvs.arenaBytes(), entries + kSlab) << "cap " << cap;
        }
    }
}

/** Entries hold the room their values take, not the store's maximum. */
TEST(KvStore, EntriesAreSizedToTheirValuesNotTheMaximum)
{
    constexpr Key kKeys = 10000;
    KvStore kvs(kKeys, 1024);
    for (Key k = 0; k < kKeys; ++k)
        kvs.withKey(k, [](KeyRecord &rec) {
            rec.setValue(std::string(32, 'v'));
        });
    EXPECT_LE(kvs.arenaBytes(), kKeys * (40 + 32) + kSlab);

    // A key inserted without a value takes one word of room.
    KvStore bare(kKeys, 1024);
    for (Key k = 0; k < kKeys; ++k)
        bare.withKey(k, [](KeyRecord &) {});
    EXPECT_EQ(bare.size(), kKeys);
    EXPECT_LE(bare.arenaBytes(), kKeys * (40 + 8) + kSlab);
}

/** Keys of a full forEach, in visiting order. */
std::vector<Key>
forEachKeys(const KvStore &kvs)
{
    std::vector<Key> keys;
    kvs.forEach([&keys](Key k) { keys.push_back(k); });
    return keys;
}

/**
 * A value outgrows its entry's room, moves to an out-of-line block that
 * grows with it, then shrinks back. Every view of the store returns the
 * latest value, the table keeps its order and size, and the arena counts
 * each block the moment it is carved.
 */
TEST(KvStore, ValueGrowsPastItsRoomAndShrinksBack)
{
    constexpr size_t kMax = 1000;
    static constexpr Key kKeys = 64;
    KvStore kvs(16, kMax); // 16 buckets for 64 keys: long chains
    auto initial = [](Key k) {
        return std::string(12, static_cast<char>('a' + k % 26));
    };
    for (Key k = 0; k < kKeys; ++k)
        kvs.withKey(k, [&](KeyRecord &rec) { rec.setValue(initial(k)); });
    const std::vector<Key> order = scanKeys(kvs);
    ASSERT_EQ(order.size(), kKeys);
    ASSERT_EQ(forEachKeys(kvs), order);
    const size_t entries = kKeys * entryStride(12); // 16 bytes of room
    ASSERT_GE(kvs.arenaBytes(), entries);
    ASSERT_LE(kvs.arenaBytes(), entries + kSlab);

    constexpr Key kKey = 37;
    // The bytes each step carves: a block at least doubles (in whole
    // words, up to the maximum) when a value outgrows the room or block
    // it is in, and nothing when it fits.
    struct Step
    {
        size_t size;
        size_t carved;
    };
    const Step steps[] = {{16, 0},    {17, 32},  {32, 0},   {33, 64},
                          {900, 904}, {1000, 1000}, {5, 0}, {16, 0},
                          {0, 0},     {1000, 0}, {12, 0}};
    char fill = 'A';
    for (const Step &step : steps) {
        const std::string value(step.size, fill++);
        const size_t before = kvs.arenaBytes();
        kvs.withKey(kKey, [&](KeyRecord &rec) {
            rec.setValue(value);
            EXPECT_EQ(rec.value(), value);
        });
        const std::string at = test::strCat("value of ", step.size, " B");
        if (step.carved == 0)
            EXPECT_EQ(kvs.arenaBytes(), before) << at;
        else
            EXPECT_GE(kvs.arenaBytes(), before + step.carved) << at;

        auto expected = [&](Key k) {
            return k == kKey ? value : initial(k);
        };
        EXPECT_EQ(kvs.size(), kKeys) << at;
        for (Key k = 0; k < kKeys; ++k)
            ASSERT_EQ(kvs.read(k).value, expected(k)) << at << " key " << k;

        std::vector<int> seen(kKeys, 0);
        std::vector<Key> visited;
        kvs.scan({}, SIZE_MAX, [&](Key k, const KeyMeta &, ValueRef v) {
            ASSERT_LT(k, kKeys);
            EXPECT_EQ(v, expected(k)) << at << " key " << k;
            ++seen[k];
            visited.push_back(k);
        });
        EXPECT_EQ(visited, order) << at;
        for (Key k = 0; k < kKeys; ++k)
            EXPECT_EQ(seen[k], 1) << at << " key " << k;
        EXPECT_EQ(forEachKeys(kvs), order) << at;
        for (size_t p : {size_t{0}, size_t{17}, size_t{40}, size_t{kKeys}}) {
            ScanStep seek = kvs.seek(p);
            EXPECT_EQ(seek.visited, p) << at;
            std::vector<Key> rest = scanKeys(kvs, seek.next);
            EXPECT_TRUE(std::equal(rest.begin(), rest.end(),
                                   order.begin() + p, order.end()))
                << at << " position " << p;
        }
    }
}

/**
 * Point readers and 64-entry chunked scans race a writer whose values
 * cross their entries' 16-byte room both ways and make blocks grow.
 * Each value names its key and derives its size and fill from its
 * version, so no reader may see a torn value or another key's value.
 */
TEST(KvStore, ValuesCrossingTheRoomRacingReadsAndScansNeverTear)
{
    static constexpr size_t kSizes[] = {16, 9, 17, 40, 12, 100, 16, 250, 8};
    static constexpr uint32_t kSteps = std::size(kSizes);
    auto makeValue = [](Key k, uint32_t version) {
        std::string v(kSizes[version % kSteps],
                      static_cast<char>('a' + version % 26));
        std::memcpy(v.data(), &k, sizeof k);
        return v;
    };
    KvStore kvs(8, 256); // 8 buckets: scans walk chains of ~25 entries
    static constexpr Key kKeys = 200;
    for (Key k = 0; k < kKeys; ++k)
        kvs.withKey(k, [&](KeyRecord &rec) { rec.setValue(makeValue(k, 0)); });

    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    std::atomic<uint64_t> wrong{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> scanned{0};
    auto check = [&](Key k, const KeyMeta &meta, std::string_view v) {
        if (k >= kKeys || v != makeValue(k, meta.ts.version))
            ++wrong;
    };
    std::thread reader([&] {
        started.fetch_add(1, std::memory_order_release);
        Key probe = 0;
        while (!stop.load(std::memory_order_acquire)) {
            probe = (probe + 7) % kKeys;
            ReadResult r = kvs.read(probe);
            if (!r.found)
                ++wrong;
            check(probe, r.meta, r.value);
            ++reads;
        }
    });
    std::thread scanner([&] {
        started.fetch_add(1, std::memory_order_release);
        while (!stop.load(std::memory_order_acquire)) {
            ScanCursor cursor;
            size_t visited = 0;
            for (bool more = true; more;) {
                ScanStep step = kvs.scan(
                    cursor, 64, [&](Key k, const KeyMeta &meta, ValueRef v) {
                        check(k, meta, v.view());
                        ++scanned;
                    });
                visited += step.visited;
                more = step.more;
                cursor = step.next;
            }
            if (visited != kKeys)
                ++wrong;
        }
    });
    std::thread writer([&] {
        while (started.load(std::memory_order_acquire) < 2) {
        }
        for (uint32_t v = 1; v <= 200000; ++v) {
            Key key = v % kKeys;
            kvs.withKey(key, [&](KeyRecord &rec) {
                rec.meta().ts.version = v;
                rec.setValue(makeValue(key, v));
            });
        }
    });
    writer.join();
    stop.store(true, std::memory_order_release);
    reader.join();
    scanner.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_GT(scanned.load(), 0u);
    for (Key k = 0; k < kKeys; ++k) {
        ReadResult r = kvs.read(k);
        EXPECT_EQ(r.value, makeValue(k, r.meta.ts.version)) << "key " << k;
    }
}

} // namespace
} // namespace hermes::store
