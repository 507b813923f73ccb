#include "sim/explorer.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "app/driver.hh"
#include "common/logging.hh"

namespace hermes::sim
{

namespace
{

// ---------------------------------------------------------------------
// Scratch WAL directories
// ---------------------------------------------------------------------

/**
 * RAII mkdtemp directory for a durable schedule's per-node WALs. The
 * path never feeds the history (only WAL *contents* do, and those are a
 * pure function of the run), so scratch placement cannot break replay
 * determinism.
 */
struct ScratchDir
{
    std::string path;

    ScratchDir()
    {
        std::string tmpl = (std::filesystem::temp_directory_path()
                            / "hermes-explore-XXXXXX")
                               .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data()))
            panic("mkdtemp(%s) failed", tmpl.c_str());
        path = buf.data();
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

// ---------------------------------------------------------------------
// Identity and RNG derivation
// ---------------------------------------------------------------------

/**
 * Seed for the RNG that materializes the mutation @p choice applied to
 * the schedule identified by (base, path): a pure function of the
 * identity, which is the whole reproducibility story — replaying the
 * path replays the exact mutations.
 */
uint64_t
identityHash(uint64_t base, const std::vector<uint32_t> &path,
             uint32_t choice)
{
    uint64_t h = mix64(base ^ 0x6A09E667F3BCC909ull);
    for (uint32_t c : path)
        h = mix64(h ^ (uint64_t{c} + 0x9E3779B97F4A7C15ull));
    return mix64(h ^ (uint64_t{choice} << 32 | 0xBB67AE8584CAA73Bull));
}

const char *
kindName(FaultEvent::Kind kind)
{
    switch (kind) {
      case FaultEvent::Kind::Drop: return "drop";
      case FaultEvent::Kind::Partition: return "partition";
      case FaultEvent::Kind::Duplicate: return "duplicate";
      case FaultEvent::Kind::Loss: return "loss";
      case FaultEvent::Kind::Delay: return "delay";
      case FaultEvent::Kind::Crash: return "crash";
      case FaultEvent::Kind::Restart: return "restart";
      case FaultEvent::Kind::Migrate: return "migrate";
    }
    return "?";
}

bool
kindFromName(const std::string &name, FaultEvent::Kind &kind)
{
    for (int k = 0; k <= static_cast<int>(FaultEvent::Kind::Migrate); ++k) {
        if (name == kindName(static_cast<FaultEvent::Kind>(k))) {
            kind = static_cast<FaultEvent::Kind>(k);
            return true;
        }
    }
    return false;
}

bool
mixFromName(const std::string &name, app::WorkloadMix &mix)
{
    for (int m = 0; m <= static_cast<int>(app::WorkloadMix::WriteStorm);
         ++m) {
        if (name == app::workloadMixName(static_cast<app::WorkloadMix>(m))) {
            mix = static_cast<app::WorkloadMix>(m);
            return true;
        }
    }
    return false;
}

bool
fsyncFromName(const std::string &name, uint8_t &policy)
{
    for (int p = 0; p <= static_cast<int>(store::FsyncPolicy::Every); ++p) {
        if (name == store::toString(static_cast<store::FsyncPolicy>(p))) {
            policy = static_cast<uint8_t>(p);
            return true;
        }
    }
    return false;
}

/** %.17g: shortest text that round-trips an IEEE double exactly. */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Generation / mutation
// ---------------------------------------------------------------------

FaultEvent
randomEvent(Rng &rng, const Schedule &s)
{
    uint32_t total = s.totalNodes();
    FaultEvent e;
    e.at = 2_ms + rng.nextBounded(s.runNs);
    double roll = rng.nextDouble();
    if (roll < 0.25) {
        e.kind = FaultEvent::Kind::Drop;
        e.duration = rng.nextRange(1, 10) * 1_ms;
        e.mask = rng.nextRange(1, (1u << static_cast<int>(DropClass::kCount))
                                      - 1);
        e.src = rng.nextBool(0.7) ? FaultEvent::kAnyNode
                                  : static_cast<uint32_t>(
                                        rng.nextBounded(total));
        e.dst = rng.nextBool(0.7) ? FaultEvent::kAnyNode
                                  : static_cast<uint32_t>(
                                        rng.nextBounded(total));
    } else if (roll < 0.40) {
        e.kind = FaultEvent::Kind::Partition;
        // Long enough that a fast RM (failureTimeout 20ms) can suspect
        // across it — partitions that outlive the detector are the ones
        // that force reconfigurations.
        e.duration = rng.nextRange(5, 30) * 1_ms;
        e.mask = rng.nextRange(1, (1ull << total) - 2);
    } else if (roll < 0.50) {
        e.kind = FaultEvent::Kind::Duplicate;
        e.duration = rng.nextRange(2, 10) * 1_ms;
        e.p = 0.1 + 0.4 * rng.nextDouble();
    } else if (roll < 0.65) {
        e.kind = FaultEvent::Kind::Loss;
        e.duration = rng.nextRange(1, 8) * 1_ms;
        e.p = 0.05 + 0.25 * rng.nextDouble();
    } else if (roll < 0.75) {
        e.kind = FaultEvent::Kind::Delay;
        e.duration = rng.nextRange(2, 10) * 1_ms;
        e.p = 0.1 + 0.3 * rng.nextDouble();
        e.meanNs = 500_us + rng.nextBounded(4500_us);
    } else if (s.shards > 1 && roll < 0.82) {
        // Elastic churn: move a fraction of one shard's slots to
        // another shard, live, while the workload races the transfer.
        // Only drawn on multi-shard schedules, so single-shard RNG
        // sequences are unchanged.
        e.kind = FaultEvent::Kind::Migrate;
        e.src = static_cast<uint32_t>(rng.nextBounded(s.shards));
        e.dst = (e.src + 1
                 + static_cast<uint32_t>(rng.nextBounded(s.shards - 1)))
                % s.shards;
        e.p = 0.1 + 0.8 * rng.nextDouble();
    } else {
        // Process faults follow the durability policy: durable schedules
        // exercise WAL crash-restarts with the RM off (the §3.4
        // choreography manages views itself); non-durable schedules
        // crash-stop nodes and let the fast RM excise them.
        e.kind = s.durable ? FaultEvent::Kind::Restart
                           : FaultEvent::Kind::Crash;
        e.node = static_cast<uint32_t>(rng.nextBounded(total));
    }
    return e;
}

/**
 * True when every shard can draw at least one key from the mix's
 * realized distribution (WriteStorm shrinks the universe; a scattered
 * Zipfian draws only mix64 images) — otherwise nextKeyInShard's
 * rejection sampling would panic on the starved shard.
 */
bool
shardsCovered(const Schedule &s)
{
    if (s.shards <= 1)
        return true;
    app::WorkloadConfig wc = app::workloadMixConfig(s.mix, s.numKeys);
    std::vector<bool> hit(s.shards, false);
    for (uint64_t k = 0; k < wc.numKeys; ++k) {
        Key key = (wc.zipfTheta > 0.0 && wc.scatterKeys)
                      ? mix64(k + 1) % wc.numKeys
                      : k;
        hit[app::shardOfKey(key, s.shards)] = true;
    }
    for (bool h : hit)
        if (!h)
            return false;
    return true;
}

/**
 * Restore schedule invariants after generation or an arbitrary mutation:
 * clamp node references, guarantee every shard a non-empty key slice,
 * cap partitions at one (overlapping heals would race), space Restart
 * events so a rejoin's state transfer finishes before the next one
 * targets the group, repair Migrate events into a valid distinct shard
 * pair (dropped entirely on single-shard shapes), keep events
 * time-sorted.
 */
void
normalizeSchedule(Schedule &s)
{
    while (!shardsCovered(s) && s.numKeys < (1u << 16))
        s.numKeys *= 2;
    if (!shardsCovered(s))
        s.shards = 1;

    uint32_t total = s.totalNodes();
    uint64_t all = (total >= 64) ? ~0ull : ((1ull << total) - 1);

    std::vector<FaultEvent> kept;
    bool have_partition = false;
    for (FaultEvent &e : s.events) {
        if (e.kind == FaultEvent::Kind::Migrate) {
            // src/dst are SHARD ids on Migrate events; mutations may
            // have scribbled node ids or wildcards into them. Repair to
            // a valid distinct pair, or drop on single-shard shapes.
            if (s.shards < 2)
                continue;
            e.src = e.src == FaultEvent::kAnyNode ? 0 : e.src % s.shards;
            e.dst = e.dst == FaultEvent::kAnyNode ? 1 : e.dst % s.shards;
            if (e.src == e.dst)
                e.dst = (e.src + 1) % s.shards;
            if (!(e.p > 0.0) || e.p > 1.0)
                e.p = 0.5;
            kept.push_back(e);
            continue;
        }
        if (e.node >= total)
            e.node %= total;
        if (e.src != FaultEvent::kAnyNode && e.src >= total)
            e.src %= total;
        if (e.dst != FaultEvent::kAnyNode && e.dst >= total)
            e.dst %= total;
        if (e.kind == FaultEvent::Kind::Partition) {
            if (have_partition)
                continue;
            e.mask &= all;
            if (e.mask == 0 || e.mask == all)
                e.mask = 1; // degenerate split: isolate node 0
            have_partition = true;
        }
        if (e.kind == FaultEvent::Kind::Restart && !s.durable)
            e.kind = FaultEvent::Kind::Crash;
        if (e.kind == FaultEvent::Kind::Crash && s.durable)
            e.kind = FaultEvent::Kind::Restart;
        kept.push_back(e);
    }
    s.events = std::move(kept);

    std::stable_sort(s.events.begin(), s.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.at != b.at)
                             return a.at < b.at;
                         return static_cast<int>(a.kind)
                                < static_cast<int>(b.kind);
                     });

    TimeNs last_restart = 0;
    bool seen_restart = false;
    for (FaultEvent &e : s.events) {
        if (e.kind != FaultEvent::Kind::Restart)
            continue;
        if (seen_restart && e.at < last_restart + 15_ms)
            e.at = last_restart + 15_ms;
        last_restart = e.at;
        seen_restart = true;
    }
    std::stable_sort(s.events.begin(), s.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
}

// ---------------------------------------------------------------------
// Coverage features
// ---------------------------------------------------------------------

/** Coverage counter categories (feature id = category << 16 | detail). */
enum class Feature : uint32_t
{
    ReadsStalled = 1,
    ReplaysStarted,
    InvRetransmits,
    RmwsAborted,
    CasFailedCompare,
    ValsSkipped,
    StaleEpochDropped,
    MaxEpoch,
    NetDropped,
    NetDuplicated,
    Crashes,
    Restarts,
    WalRecovered,
    WalTornBytes,
    DropByType,
    LinPending,
    SlotsMigrated,
    MigrationsCompleted,
    MigrationWritesParked,
};

/** log2 bucket: collapses raw counts so coverage saturates, not churns. */
uint32_t
bucketOf(uint64_t v)
{
    uint32_t b = 0;
    while (v) {
        ++b;
        v >>= 1;
    }
    return b;
}

void
addFeature(std::vector<uint32_t> &out, Feature cat, uint64_t value)
{
    if (value == 0)
        return;
    out.push_back(static_cast<uint32_t>(cat) << 16 | bucketOf(value));
}

} // namespace

// ---------------------------------------------------------------------
// DropClass mapping
// ---------------------------------------------------------------------

uint64_t
dropClassBit(net::MsgType type)
{
    switch (type) {
      case net::MsgType::HermesInv:
        return 1ull << static_cast<int>(DropClass::Inv);
      case net::MsgType::HermesAck:
        return 1ull << static_cast<int>(DropClass::Ack);
      case net::MsgType::HermesVal:
        return 1ull << static_cast<int>(DropClass::Val);
      case net::MsgType::HermesStateReq:
      case net::MsgType::HermesStateChunk:
        return 1ull << static_cast<int>(DropClass::State);
      default:
        if (net::isRmMessage(type))
            return 1ull << static_cast<int>(DropClass::Rm);
        return 0;
    }
}

// ---------------------------------------------------------------------
// Schedule identity and serialization
// ---------------------------------------------------------------------

std::string
Schedule::id() const
{
    std::ostringstream out;
    out << 's' << baseSeed;
    if (!path.empty()) {
        out << "/m";
        for (size_t i = 0; i < path.size(); ++i)
            out << (i ? "." : "") << path[i];
    }
    if (shrunk)
        out << "+shrunk";
    return out.str();
}

std::string
serializeSchedule(const Schedule &s)
{
    std::ostringstream out;
    out << "hermes-fault-schedule v1\n";
    out << "base-seed " << s.baseSeed << '\n';
    out << "path ";
    if (s.path.empty()) {
        out << '-';
    } else {
        for (size_t i = 0; i < s.path.size(); ++i)
            out << (i ? "." : "") << s.path[i];
    }
    out << '\n';
    out << "shrunk " << (s.shrunk ? 1 : 0) << '\n';
    out << "shards " << s.shards << '\n';
    out << "replicas " << s.replicas << '\n';
    out << "cluster-seed " << s.clusterSeed << '\n';
    out << "durable " << (s.durable ? 1 : 0) << '\n';
    out << "fsync-policy "
        << store::toString(static_cast<store::FsyncPolicy>(s.fsyncPolicy))
        << '\n';
    out << "rm " << (s.rm ? 1 : 0) << '\n';
    out << "mix " << app::workloadMixName(s.mix) << '\n';
    out << "num-keys " << s.numKeys << '\n';
    out << "sessions-per-node " << s.sessionsPerNode << '\n';
    out << "driver-seed " << s.driverSeed << '\n';
    out << "run-ns " << s.runNs << '\n';
    out << "quiesce-ns " << s.quiesceNs << '\n';
    if (s.selfTestBug)
        out << "self-test-bug 1\n";
    for (const FaultEvent &e : s.events) {
        out << "event " << kindName(e.kind) << " at=" << e.at;
        switch (e.kind) {
          case FaultEvent::Kind::Drop:
            out << " dur=" << e.duration;
            out << " mask=0x" << std::hex << e.mask << std::dec;
            out << " src=";
            if (e.src == FaultEvent::kAnyNode)
                out << '*';
            else
                out << e.src;
            out << " dst=";
            if (e.dst == FaultEvent::kAnyNode)
                out << '*';
            else
                out << e.dst;
            break;
          case FaultEvent::Kind::Partition:
            out << " dur=" << e.duration;
            out << " mask=0x" << std::hex << e.mask << std::dec;
            break;
          case FaultEvent::Kind::Duplicate:
          case FaultEvent::Kind::Loss:
            out << " dur=" << e.duration << " p=" << formatDouble(e.p);
            break;
          case FaultEvent::Kind::Delay:
            out << " dur=" << e.duration << " p=" << formatDouble(e.p)
                << " mean=" << e.meanNs;
            break;
          case FaultEvent::Kind::Crash:
          case FaultEvent::Kind::Restart:
            out << " node=" << e.node;
            break;
          case FaultEvent::Kind::Migrate:
            out << " src=" << e.src << " dst=" << e.dst
                << " p=" << formatDouble(e.p);
            break;
        }
        out << '\n';
    }
    return out.str();
}

std::optional<Schedule>
parseSchedule(const std::string &text, std::string *error)
{
    auto fail = [error](const std::string &why) -> std::optional<Schedule> {
        if (error)
            *error = why;
        return std::nullopt;
    };

    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    // The version header must be the first non-comment, non-blank line;
    // corpus files may carry leading '#' commentary above it.
    for (;;) {
        if (!std::getline(in, line))
            return fail("missing 'hermes-fault-schedule v1' header");
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        if (line != "hermes-fault-schedule v1")
            return fail("missing 'hermes-fault-schedule v1' header");
        break;
    }

    Schedule s;
    s.events.clear();
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        auto bad = [&]() {
            return fail("line " + std::to_string(lineno) + ": bad '" + key
                        + "' line: " + line);
        };
        if (key == "base-seed") {
            if (!(ls >> s.baseSeed))
                return bad();
        } else if (key == "path") {
            std::string p;
            if (!(ls >> p))
                return bad();
            s.path.clear();
            if (p != "-") {
                std::istringstream ps(p);
                std::string tok;
                while (std::getline(ps, tok, '.')) {
                    try {
                        s.path.push_back(
                            static_cast<uint32_t>(std::stoul(tok)));
                    } catch (...) {
                        return bad();
                    }
                }
            }
        } else if (key == "shrunk") {
            int v;
            if (!(ls >> v))
                return bad();
            s.shrunk = v != 0;
        } else if (key == "shards") {
            if (!(ls >> s.shards) || s.shards == 0)
                return bad();
        } else if (key == "replicas") {
            if (!(ls >> s.replicas) || s.replicas == 0)
                return bad();
        } else if (key == "cluster-seed") {
            if (!(ls >> s.clusterSeed))
                return bad();
        } else if (key == "durable") {
            int v;
            if (!(ls >> v))
                return bad();
            s.durable = v != 0;
        } else if (key == "fsync-policy") {
            std::string name;
            if (!(ls >> name) || !fsyncFromName(name, s.fsyncPolicy))
                return bad();
        } else if (key == "rm") {
            int v;
            if (!(ls >> v))
                return bad();
            s.rm = v != 0;
        } else if (key == "mix") {
            std::string name;
            if (!(ls >> name) || !mixFromName(name, s.mix))
                return bad();
        } else if (key == "num-keys") {
            if (!(ls >> s.numKeys) || s.numKeys == 0)
                return bad();
        } else if (key == "sessions-per-node") {
            if (!(ls >> s.sessionsPerNode) || s.sessionsPerNode == 0)
                return bad();
        } else if (key == "driver-seed") {
            if (!(ls >> s.driverSeed))
                return bad();
        } else if (key == "run-ns") {
            if (!(ls >> s.runNs))
                return bad();
        } else if (key == "quiesce-ns") {
            if (!(ls >> s.quiesceNs))
                return bad();
        } else if (key == "self-test-bug") {
            int v;
            if (!(ls >> v))
                return bad();
            s.selfTestBug = v != 0;
        } else if (key == "event") {
            std::string kname;
            if (!(ls >> kname))
                return bad();
            FaultEvent e;
            if (!kindFromName(kname, e.kind))
                return bad();
            std::string kv;
            while (ls >> kv) {
                size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    return bad();
                std::string k = kv.substr(0, eq);
                std::string v = kv.substr(eq + 1);
                try {
                    if (k == "at")
                        e.at = std::stoull(v);
                    else if (k == "dur")
                        e.duration = std::stoull(v);
                    else if (k == "mask")
                        e.mask = std::stoull(v, nullptr, 0);
                    else if (k == "src")
                        e.src = v == "*" ? FaultEvent::kAnyNode
                                         : static_cast<uint32_t>(
                                               std::stoul(v));
                    else if (k == "dst")
                        e.dst = v == "*" ? FaultEvent::kAnyNode
                                         : static_cast<uint32_t>(
                                               std::stoul(v));
                    else if (k == "node")
                        e.node = static_cast<uint32_t>(std::stoul(v));
                    else if (k == "p")
                        e.p = std::stod(v);
                    else if (k == "mean")
                        e.meanNs = std::stoull(v);
                    else
                        return bad();
                } catch (...) {
                    return bad();
                }
            }
            s.events.push_back(e);
        } else {
            return fail("line " + std::to_string(lineno)
                        + ": unknown key '" + key + "'");
        }
    }
    return s;
}

// ---------------------------------------------------------------------
// Generation / mutation / materialization
// ---------------------------------------------------------------------

Schedule
generateSchedule(uint64_t seed)
{
    Schedule s;
    s.baseSeed = seed;
    Rng rng(mix64(seed ^ 0x510E527FADE682D1ull));

    s.shards = rng.nextBool(0.35) ? 2 : 1;
    s.replicas = 3;
    s.clusterSeed = rng.next();
    s.durable = rng.nextBool(0.3);
    s.rm = !s.durable;
    s.fsyncPolicy = s.durable
                        ? static_cast<uint8_t>(rng.nextBounded(3))
                        : static_cast<uint8_t>(store::FsyncPolicy::Group);
    s.mix = static_cast<app::WorkloadMix>(rng.nextBounded(4));
    s.numKeys = 1u << rng.nextRange(4, 7);
    s.sessionsPerNode = static_cast<uint32_t>(rng.nextRange(2, 6));
    s.driverSeed = rng.next();
    s.runNs = rng.nextRange(20, 40) * 1_ms;
    s.quiesceNs = 60_ms;

    size_t n = rng.nextRange(1, 5);
    for (size_t i = 0; i < n; ++i)
        s.events.push_back(randomEvent(rng, s));
    normalizeSchedule(s);
    return s;
}

Schedule
mutateSchedule(const Schedule &parent, uint32_t choice)
{
    Schedule s = parent;
    Rng rng(identityHash(parent.baseSeed, parent.path, choice));
    s.path.push_back(choice);

    switch (rng.nextBounded(8)) {
      case 0:
        s.events.push_back(randomEvent(rng, s));
        break;
      case 1:
        if (s.events.empty())
            s.events.push_back(randomEvent(rng, s));
        else
            s.events.erase(s.events.begin()
                           + static_cast<long>(
                                 rng.nextBounded(s.events.size())));
        break;
      case 2:
        if (!s.events.empty()) {
            FaultEvent &e = s.events[rng.nextBounded(s.events.size())];
            // Shift onset by up to ±30% of the run window.
            uint64_t span = s.runNs * 3 / 10;
            TimeNs delta = rng.nextBounded(2 * span + 1);
            e.at = (e.at + delta > span) ? e.at + delta - span : 2_ms;
            if (e.at < 2_ms)
                e.at = 2_ms;
        }
        break;
      case 3:
        if (!s.events.empty()) {
            FaultEvent &e = s.events[rng.nextBounded(s.events.size())];
            switch (e.kind) {
              case FaultEvent::Kind::Drop:
                e.mask = rng.nextRange(
                    1, (1u << static_cast<int>(DropClass::kCount)) - 1);
                e.duration = rng.nextRange(1, 10) * 1_ms;
                break;
              case FaultEvent::Kind::Partition:
                e.duration = rng.nextRange(5, 30) * 1_ms;
                e.mask = rng.nextRange(1, (1ull << s.totalNodes()) - 2);
                break;
              case FaultEvent::Kind::Duplicate:
              case FaultEvent::Kind::Loss:
              case FaultEvent::Kind::Delay:
                e.p = 0.05 + 0.45 * rng.nextDouble();
                e.duration = rng.nextRange(1, 10) * 1_ms;
                if (e.kind == FaultEvent::Kind::Delay)
                    e.meanNs = 500_us + rng.nextBounded(4500_us);
                break;
              case FaultEvent::Kind::Crash:
              case FaultEvent::Kind::Restart:
                e.node = static_cast<uint32_t>(
                    rng.nextBounded(s.totalNodes()));
                break;
              case FaultEvent::Kind::Migrate:
                e.p = 0.1 + 0.8 * rng.nextDouble();
                break;
            }
        }
        break;
      case 4:
        if (!s.events.empty()) {
            FaultEvent &e = s.events[rng.nextBounded(s.events.size())];
            e.node = static_cast<uint32_t>(rng.nextBounded(s.totalNodes()));
            e.src = rng.nextBool(0.5)
                        ? FaultEvent::kAnyNode
                        : static_cast<uint32_t>(
                              rng.nextBounded(s.totalNodes()));
            e.dst = rng.nextBool(0.5)
                        ? FaultEvent::kAnyNode
                        : static_cast<uint32_t>(
                              rng.nextBounded(s.totalNodes()));
        }
        break;
      case 5:
        s.driverSeed = rng.next();
        break;
      case 6:
        s.mix = static_cast<app::WorkloadMix>(rng.nextBounded(4));
        break;
      default:
        if (rng.nextBool(0.5))
            s.sessionsPerNode =
                static_cast<uint32_t>(rng.nextRange(1, 8));
        else
            s.numKeys = 1u << rng.nextRange(3, 8);
        break;
    }
    normalizeSchedule(s);
    return s;
}

Schedule
materializeSchedule(uint64_t seed, const std::vector<uint32_t> &path)
{
    Schedule s = generateSchedule(seed);
    for (uint32_t choice : path)
        s = mutateSchedule(s, choice);
    return s;
}

// ---------------------------------------------------------------------
// Running one schedule
// ---------------------------------------------------------------------

namespace
{

/** One active targeted-drop window the shared DropFilter consults. */
struct DropWindow
{
    TimeNs start;
    TimeNs end;
    uint64_t mask;
    uint32_t src;
    uint32_t dst;
};

std::string
encodeHistory(const app::History &history)
{
    // The canonical form the determinism suite hashes: every field of
    // every op, in recorded order.
    std::ostringstream out;
    for (const app::HistOp &op : history.ops()) {
        out << static_cast<int>(op.kind) << '|' << op.key << '|' << op.shard
            << '|' << op.arg << '|' << op.expected << '|' << op.result
            << '|' << op.casApplied << '|' << op.invoke << '|'
            << op.response << '\n';
    }
    return out.str();
}

std::string
fnv1aHex(const std::string &data)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

RunOutcome
runSchedule(const Schedule &s, const ExplorerConfig &cfg)
{
    ScratchDir scratch;

    app::ClusterConfig cc;
    cc.protocol = app::Protocol::Hermes;
    cc.nodes = s.replicas;
    cc.shards = s.shards;
    cc.seed = s.clusterSeed;
    cc.replica.hermesConfig.mlt = 200_us;
    if (s.rm) {
        cc.replica.enableRm = true;
        cc.replica.rmConfig.heartbeatInterval = 2_ms;
        cc.replica.rmConfig.failureTimeout = 20_ms;
        cc.replica.rmConfig.leaseDuration = 8_ms;
        cc.replica.rmConfig.proposalRetry = 5_ms;
    }
    if (s.durable) {
        cc.walDir = scratch.path;
        cc.walFsync = static_cast<store::FsyncPolicy>(s.fsyncPolicy);
    }
    if (cfg.armSelfTestBug || s.selfTestBug)
        cc.buggyAckBeforeCommitAtEpoch = 2;

    app::SimCluster cluster(cc);
    cluster.start();

    SimNetwork &net = cluster.runtime().network();
    EventQueue &events = cluster.runtime().events();
    uint32_t total = s.totalNodes();

    auto windows = std::make_shared<std::vector<DropWindow>>();
    for (const FaultEvent &e : s.events) {
        switch (e.kind) {
          case FaultEvent::Kind::Drop:
            windows->push_back(
                {e.at, e.at + e.duration, e.mask, e.src, e.dst});
            break;
          case FaultEvent::Kind::Partition: {
            uint64_t mask = e.mask;
            events.scheduleAt(e.at, [&net, total, mask] {
                std::vector<int> groups(total, 0);
                for (uint32_t n = 0; n < total; ++n)
                    if (mask >> n & 1)
                        groups[n] = 1;
                net.setPartition(groups);
            });
            events.scheduleAt(e.at + e.duration,
                              [&net] { net.healPartition(); });
            break;
          }
          case FaultEvent::Kind::Duplicate: {
            double p = e.p;
            events.scheduleAt(e.at,
                              [&net, p] { net.setDuplicateProbability(p); });
            events.scheduleAt(e.at + e.duration,
                              [&net] { net.setDuplicateProbability(0.0); });
            break;
          }
          case FaultEvent::Kind::Loss: {
            double p = e.p;
            events.scheduleAt(e.at,
                              [&net, p] { net.setLossProbability(p); });
            events.scheduleAt(e.at + e.duration,
                              [&net] { net.setLossProbability(0.0); });
            break;
          }
          case FaultEvent::Kind::Delay: {
            double p = e.p;
            DurationNs mean = e.meanNs;
            events.scheduleAt(
                e.at, [&net, p, mean] { net.setDelaySpike(p, mean); });
            events.scheduleAt(e.at + e.duration,
                              [&net] { net.setDelaySpike(0.0, 0); });
            break;
          }
          case FaultEvent::Kind::Crash: {
            // Guard at fire time (deterministically): never take a group
            // below majority — an unrecoverable stall finds nothing — and
            // never crash twice.
            NodeId node = e.node;
            events.scheduleAt(e.at, [&cluster, node] {
                if (!cluster.runtime().alive(node))
                    return;
                uint32_t shard = cluster.shardMap().shardOfNode(node);
                const NodeSet &group = cluster.shardMap().nodesOf(shard);
                size_t live = 0;
                for (NodeId n : group)
                    if (cluster.runtime().alive(n))
                        ++live;
                if ((live - 1) * 2 <= group.size())
                    return;
                cluster.crash(node);
            });
            break;
          }
          case FaultEvent::Kind::Restart: {
            // crashRestartNode needs a live survivor as state-transfer
            // source and a group that is not already mid-rejoin.
            NodeId node = e.node;
            events.scheduleAt(e.at, [&cluster, node] {
                uint32_t shard = cluster.shardMap().shardOfNode(node);
                bool ok = false;
                for (NodeId n : cluster.shardMap().nodesOf(shard)) {
                    proto::HermesReplica *h = cluster.replica(n).hermes();
                    if (h && h->isShadow())
                        return;
                    if (n != node && cluster.runtime().alive(n))
                        ok = true;
                }
                if (ok)
                    cluster.crashRestartNode(node);
            });
            break;
          }
          case FaultEvent::Kind::Migrate: {
            // Fire-time guard (deterministic): one migration at a time,
            // both shards valid and distinct, source actually owning
            // slots. Slot selection is a pure function of the live map:
            // the first ceil(p * owned) slots owned by src.
            uint32_t src = e.src;
            uint32_t dst = e.dst;
            double frac = e.p;
            events.scheduleAt(e.at, [&cluster, src, dst, frac] {
                if (cluster.migrationActive())
                    return;
                uint32_t shards =
                    static_cast<uint32_t>(cluster.numShards());
                if (src == dst || src >= shards || dst >= shards)
                    return;
                std::vector<uint32_t> slots =
                    cluster.slotMap().slotsOwnedBy(src);
                if (slots.empty())
                    return;
                size_t take = static_cast<size_t>(
                    frac * static_cast<double>(slots.size()));
                take = std::min(std::max<size_t>(take, 1), slots.size());
                slots.resize(take);
                cluster.migrateSlots(std::move(slots), src, dst);
            });
            break;
          }
        }
    }
    if (!windows->empty()) {
        net.setDropFilter([&cluster, windows](NodeId src, NodeId dst,
                                              const net::MessagePtr &msg) {
            TimeNs now = cluster.now();
            uint64_t bit = dropClassBit(msg->type());
            if (bit == 0)
                return false;
            for (const DropWindow &w : *windows) {
                if (now < w.start || now >= w.end)
                    continue;
                if (!(w.mask & bit))
                    continue;
                if (w.src != FaultEvent::kAnyNode && w.src != src)
                    continue;
                if (w.dst != FaultEvent::kAnyNode && w.dst != dst)
                    continue;
                return true;
            }
            return false;
        });
    }

    app::DriverConfig dc;
    dc.workload = app::workloadMixConfig(s.mix, s.numKeys);
    dc.sessionsPerNode = s.sessionsPerNode;
    dc.warmup = 2_ms;
    dc.measure = s.runNs;
    dc.quiesceAfter = s.quiesceNs;
    dc.recordHistory = true;
    dc.partitionSessionsByShard = s.shards > 1;
    dc.seed = s.driverSeed;

    app::LoadDriver driver(cluster, dc);
    app::DriverResult result = driver.run();

    RunOutcome out;
    out.opsTotal = result.opsTotal;
    out.historyOps = result.history.size();
    out.historyDigest = fnv1aHex(encodeHistory(result.history));
    out.lin = app::checkShardedHistory(result.history, cfg.linStateBudget,
                                       app::LinMode::Jit);

    // ---- Coverage: aggregate protocol / network / durability signals ----
    proto::HermesStats agg;
    uint64_t pending = 0;
    for (NodeId n = 0; n < cluster.numNodes(); ++n) {
        proto::HermesReplica *h = cluster.replica(n).hermes();
        if (h) {
            const proto::HermesStats &st = h->stats();
            agg.readsStalled += st.readsStalled;
            agg.replaysStarted += st.replaysStarted;
            agg.invRetransmits += st.invRetransmits;
            agg.rmwsAborted += st.rmwsAborted;
            agg.casFailedCompare += st.casFailedCompare;
            agg.valsSkipped += st.valsSkipped;
            agg.staleEpochDropped += st.staleEpochDropped;
            if (h->view().epoch > out.maxEpoch)
                out.maxEpoch = h->view().epoch;
        }
        if (store::Wal *wal = cluster.replica(n).wal()) {
            out.walRecordsRecovered += wal->stats().recordsRecovered;
            out.walTornBytes += wal->stats().tornBytesDiscarded;
        }
    }
    for (const app::HistOp &op : result.history.ops())
        if (op.isPending())
            ++pending;
    out.netDropped = net.droppedCount();
    out.netDuplicated = net.duplicatedCount();
    out.replaysStarted = agg.replaysStarted;
    out.invRetransmits = agg.invRetransmits;
    out.readsStalled = agg.readsStalled;
    out.crashes = cluster.runtime().crashCount();
    out.restarts = cluster.runtime().restartCount();
    out.slotsMigrated = cluster.migration().slotsMigrated();
    out.migrationsCompleted = cluster.migration().migrationsCompleted();
    out.migrationWritesParked = cluster.migration().migrationWritesParked();

    addFeature(out.coverage, Feature::ReadsStalled, agg.readsStalled);
    addFeature(out.coverage, Feature::ReplaysStarted, agg.replaysStarted);
    addFeature(out.coverage, Feature::InvRetransmits, agg.invRetransmits);
    addFeature(out.coverage, Feature::RmwsAborted, agg.rmwsAborted);
    addFeature(out.coverage, Feature::CasFailedCompare,
               agg.casFailedCompare);
    addFeature(out.coverage, Feature::ValsSkipped, agg.valsSkipped);
    addFeature(out.coverage, Feature::StaleEpochDropped,
               agg.staleEpochDropped);
    if (out.maxEpoch > 1) {
        // Exact epoch, not a bucket: each reconfiguration depth reached
        // for the first time is new behavior.
        out.coverage.push_back(
            static_cast<uint32_t>(Feature::MaxEpoch) << 16 | out.maxEpoch);
    }
    addFeature(out.coverage, Feature::NetDropped, out.netDropped);
    addFeature(out.coverage, Feature::NetDuplicated, out.netDuplicated);
    addFeature(out.coverage, Feature::Crashes, out.crashes);
    addFeature(out.coverage, Feature::Restarts, out.restarts);
    addFeature(out.coverage, Feature::WalRecovered,
               out.walRecordsRecovered);
    addFeature(out.coverage, Feature::WalTornBytes, out.walTornBytes);
    addFeature(out.coverage, Feature::LinPending, pending);
    addFeature(out.coverage, Feature::SlotsMigrated, out.slotsMigrated);
    addFeature(out.coverage, Feature::MigrationsCompleted,
               out.migrationsCompleted);
    addFeature(out.coverage, Feature::MigrationWritesParked,
               out.migrationWritesParked);
    const std::vector<uint64_t> &drops = net.dropsByType();
    for (size_t t = 0; t < drops.size(); ++t) {
        if (drops[t]) {
            out.coverage.push_back(
                static_cast<uint32_t>(Feature::DropByType) << 16
                | static_cast<uint32_t>(t) << 4 | bucketOf(drops[t]) % 16);
        }
    }
    std::sort(out.coverage.begin(), out.coverage.end());
    out.coverage.erase(
        std::unique(out.coverage.begin(), out.coverage.end()),
        out.coverage.end());
    return out;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

namespace
{

/** True when @p s still reproduces a linearizability violation. */
bool
stillFails(const Schedule &s, const ExplorerConfig &cfg, size_t &used,
           size_t budget)
{
    if (used >= budget)
        return false;
    ++used;
    return runSchedule(s, cfg).lin.result == app::LinResult::Violation;
}

} // namespace

Schedule
shrinkSchedule(const Schedule &failing, const ExplorerConfig &cfg,
               size_t *runs_used)
{
    Schedule best = failing;
    size_t used = 0;
    size_t budget = cfg.shrinkRuns;
    auto note = [&cfg](const std::string &msg) {
        if (cfg.log)
            cfg.log(msg);
    };

    // Phase 1: ddmin over the event list — drop chunks, halving the
    // chunk size, until single events survive removal.
    bool changed = true;
    while (changed && best.events.size() > 1) {
        changed = false;
        for (size_t chunk = best.events.size(); chunk >= 1; chunk /= 2) {
            for (size_t start = 0; start < best.events.size();
                 start += chunk) {
                Schedule cand = best;
                size_t end = std::min(start + chunk, cand.events.size());
                cand.events.erase(cand.events.begin()
                                      + static_cast<long>(start),
                                  cand.events.begin()
                                      + static_cast<long>(end));
                cand.shrunk = true;
                if (stillFails(cand, cfg, used, budget)) {
                    best = cand;
                    changed = true;
                    note("shrink: events -> "
                         + std::to_string(best.events.size()));
                    // Restart this chunk size over the shorter list.
                    start = static_cast<size_t>(-static_cast<long>(chunk));
                }
            }
            if (chunk == 1)
                break;
        }
    }

    // Phase 2: coarsen magnitudes — halve burst durations and
    // probabilities, widen targeted drops to untargeted ones.
    for (size_t i = 0; i < best.events.size() && used < budget; ++i) {
        for (int round = 0; round < 3 && used < budget; ++round) {
            Schedule cand = best;
            FaultEvent &e = cand.events[i];
            bool touched = false;
            if (e.duration > 1_ms) {
                e.duration /= 2;
                touched = true;
            }
            if (e.p > 0.05) {
                e.p /= 2;
                touched = true;
            }
            if (!touched)
                break;
            cand.shrunk = true;
            if (stillFails(cand, cfg, used, budget))
                best = cand;
            else
                break;
        }
    }

    // Phase 3: shrink the workload around the surviving faults.
    auto tryCand = [&](Schedule cand) {
        cand.shrunk = true;
        if (stillFails(cand, cfg, used, budget)) {
            best = cand;
            return true;
        }
        return false;
    };
    while (best.sessionsPerNode > 1 && used < budget) {
        Schedule cand = best;
        cand.sessionsPerNode = std::max(1u, cand.sessionsPerNode / 2);
        if (!tryCand(std::move(cand)))
            break;
    }
    while (best.runNs > 5_ms && used < budget) {
        Schedule cand = best;
        cand.runNs = std::max<DurationNs>(5_ms, cand.runNs / 2);
        if (!tryCand(std::move(cand)))
            break;
    }
    while (best.numKeys > 4 && used < budget) {
        Schedule cand = best;
        cand.numKeys = std::max(4u, cand.numKeys / 2);
        if (!tryCand(std::move(cand)))
            break;
    }

    best.shrunk = true;
    if (runs_used)
        *runs_used = used;
    note("shrink: done after " + std::to_string(used) + " runs, "
         + std::to_string(best.events.size()) + " events");
    return best;
}

// ---------------------------------------------------------------------
// The search loop
// ---------------------------------------------------------------------

Explorer::Explorer(ExplorerConfig cfg) : cfg_(std::move(cfg)) {}

std::optional<Failure>
Explorer::run()
{
    auto start = std::chrono::steady_clock::now();
    auto expired = [&] {
        if (cfg_.maxSchedules && runs_ >= cfg_.maxSchedules)
            return true;
        if (cfg_.maxSeconds > 0.0) {
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            if (elapsed.count() >= cfg_.maxSeconds)
                return true;
        }
        return false;
    };
    auto note = [&](const std::string &msg) {
        if (cfg_.log)
            cfg_.log(msg);
    };

    // Search-trajectory RNG: which pool member to mutate and with which
    // choice. Deterministic given the base seed, so whole explorer runs
    // replay too — but replaying a *failure* only needs the schedule id.
    Rng rng(mix64(cfg_.baseSeed ^ 0x1F83D9ABFB41BD6Bull));
    uint64_t generated = 0;

    while (!expired()) {
        Schedule s;
        if (pool_.empty() || runs_ % 4 == 0) {
            uint64_t state = cfg_.baseSeed + generated++;
            s = generateSchedule(splitmix64(state));
        } else {
            const Schedule &parent = pool_[rng.nextBounded(pool_.size())];
            s = mutateSchedule(parent,
                               static_cast<uint32_t>(rng.next() & 0xFFFF));
        }

        RunOutcome outcome = runSchedule(s, cfg_);
        ++runs_;

        if (outcome.lin.result == app::LinResult::Violation) {
            note("violation at " + s.id() + " after "
                 + std::to_string(runs_) + " runs; shrinking");
            // Stamp the shim state into the schedule so the serialized
            // reproducer replays the same (buggy) system standalone.
            s.selfTestBug = cfg_.armSelfTestBug;
            Failure failure;
            failure.original = s;
            failure.runsToFind = runs_;
            failure.shrunk =
                shrinkSchedule(s, cfg_, &failure.shrinkRunsUsed);
            failure.outcome = runSchedule(failure.shrunk, cfg_);
            return failure;
        }

        bool novel = false;
        for (uint32_t f : outcome.coverage)
            novel |= coverage_.insert(f).second;
        if (novel) {
            pool_.push_back(s);
            if (pool_.size() > 64)
                pool_.erase(pool_.begin());
            note("run " + std::to_string(runs_) + ": " + s.id()
                 + " new coverage (total "
                 + std::to_string(coverage_.size()) + " features, pool "
                 + std::to_string(pool_.size()) + ")");
        }
    }
    note("budget exhausted after " + std::to_string(runs_) + " runs, "
         + std::to_string(coverage_.size()) + " coverage features");
    return std::nullopt;
}

} // namespace hermes::sim
