/**
 * @file
 * Observability differential tests: the TraceSink is observation-only.
 *
 *  - The hard invariant of the tracing subsystem: every registered
 *    experiment produces byte-identical JSON with tracing off, on, and
 *    filtered, at any --jobs/--channel-threads/--skip combination
 *    (one-cell runs over every 7th cell keep the whole registry fast).
 *  - The emitted trace is valid Chrome trace_event JSON: it parses via
 *    src/common/json as an array of objects carrying ph/pid/tid/ts,
 *    with only known phase letters and categories.
 *  - Category filtering drops events without touching results.
 *  - Stats snapshots ride inside cell payloads but are excluded from
 *    manifest cell digests (old goldens and stats-free payloads keep
 *    validating), and the structural diff's "*" ignore wildcard skips
 *    them by path.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bench/registry.hh"
#include "common/trace_sink.hh"
#include "report/report.hh"
#include "sim/runner.hh"

namespace bh
{
namespace
{

struct RunOpts
{
    double scale = 0.1;
    unsigned jobs = 1;
    unsigned channels = 1;
    unsigned channelThreads = 1;
    SkipMode skip = SkipMode::kEventSkip;
    std::optional<std::uint64_t> onlyCell;
    std::string tracePath;      ///< empty = tracing off
    std::string traceFilter;
};

/** Run one registered experiment under `opts`, returning its JSON. */
Json
runTraced(const char *name, const RunOpts &opts)
{
    const BenchInfo *info = findBench(name);
    EXPECT_NE(info, nullptr) << name;
    if (opts.tracePath.size()) {
        std::string err;
        EXPECT_TRUE(TraceSink::open(opts.tracePath, opts.traceFilter, err))
            << err;
    }
    Runner pool(opts.jobs);
    BenchContext ctx;
    ctx.scale = opts.scale;
    ctx.runner = &pool;
    ctx.channels = opts.channels;
    ctx.channelThreads = opts.channelThreads;
    ctx.skip = opts.skip;
    ctx.onlyCell = opts.onlyCell;
    testing::internal::CaptureStdout();
    runBench(*info, ctx);
    testing::internal::GetCapturedStdout();
    if (opts.tracePath.size())
        TraceSink::close();
    return ctx.result;
}

std::string
tracePath(const char *tag)
{
    return testing::TempDir() + "bh_trace_" + tag + ".json";
}

Json
parseFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream text;
    text << f.rdbuf();
    Json doc;
    std::string err;
    EXPECT_TRUE(Json::parse(text.str(), doc, &err)) << err;
    return doc;
}

/** Global cell count of an experiment at scale 0.1, one channel. */
std::uint64_t
cellCount(const BenchInfo &info)
{
    Runner pool(1);
    BenchContext ctx;
    ctx.scale = 0.1;
    ctx.runner = &pool;
    ctx.mode = BenchContext::CellMode::Enumerate;
    runBench(info, ctx);
    return ctx.nextCell;
}

/**
 * The tentpole invariant over the whole registry: tracing (unfiltered
 * and filtered) never changes a single output byte. Every 7th cell of
 * each experiment's grid (0, 7, 14, ...) runs alone so the full
 * registry stays fast; analytic experiments run whole and are covered
 * too.
 */
TEST(TraceDifferential, AllExperimentsByteIdenticalWithTracingOnOffFiltered)
{
    for (const auto &info : benchRegistry()) {
        std::vector<std::optional<std::uint64_t>> picks;
        const std::uint64_t total = cellCount(info);
        if (total == 0)
            picks.push_back(std::nullopt);
        for (std::uint64_t cell = 0; cell < total; cell += 7)
            picks.push_back(cell);

        for (const auto &pick : picks) {
            RunOpts off;
            off.onlyCell = pick;
            RunOpts on = off;
            on.tracePath = tracePath("all");
            RunOpts filtered = off;
            filtered.tracePath = tracePath("all");
            filtered.traceFilter = "mitig,skip";

            const std::string what = std::string(info.name) +
                (pick ? " cell " + std::to_string(*pick) : "");
            std::string base = runTraced(info.name, off).dump(2);
            EXPECT_EQ(base, runTraced(info.name, on).dump(2))
                << what << ": tracing on changed the output";
            EXPECT_EQ(base, runTraced(info.name, filtered).dump(2))
                << what << ": filtered tracing changed the output";
        }
    }
    std::remove(tracePath("all").c_str());
}

/**
 * Tracing composed with every execution-shape knob: worker count,
 * channel count, lane threads, and skip mode must all agree with the
 * serial untraced reference byte-for-byte. The whole 2-channel fig4
 * grid runs, so the jobs4 variant executes cells concurrently.
 */
TEST(TraceDifferential, TracingIsInvariantAcrossJobsThreadsAndSkip)
{
    RunOpts ref;
    ref.channels = 2;
    std::string base = runTraced("fig4", ref).dump(2);

    struct Variant
    {
        const char *tag;
        unsigned jobs;
        unsigned channelThreads;
        SkipMode skip;
    };
    const Variant variants[] = {
        {"jobs4", 4, 1, SkipMode::kEventSkip},
        {"lanes2", 1, 2, SkipMode::kEventSkip},
        {"noskip", 1, 1, SkipMode::kCycleByCycle},
        {"verify", 2, 2, SkipMode::kVerify},
    };
    for (const Variant &v : variants) {
        RunOpts opts = ref;
        opts.jobs = v.jobs;
        opts.channelThreads = v.channelThreads;
        opts.skip = v.skip;
        opts.tracePath = tracePath(v.tag);
        EXPECT_EQ(base, runTraced("fig4", opts).dump(2)) << v.tag;
        std::remove(opts.tracePath.c_str());
    }
}

TEST(TraceFormat, EmittedTraceParsesAsChromeTraceEvents)
{
    std::string path = tracePath("format");
    RunOpts opts;
    opts.channels = 2;      // driver lane spans only exist multi-channel
    opts.tracePath = path;

    const std::set<std::string> known_ph = {"M", "i", "X", "C"};
    const std::set<std::string> known_cat = {"mem", "queue", "mitig",
                                             "lane", "skip"};
    std::set<std::string> seen_cat;
    for (std::uint64_t cell : {0u, 12u, 24u}) {
        opts.onlyCell = cell;
        runTraced("fig4", opts);
        Json doc = parseFile(path);
        ASSERT_EQ(doc.type(), Json::Type::Array) << "cell " << cell;
        // Metadata rows plus real events.
        ASSERT_GT(doc.size(), 1u) << "cell " << cell;
        for (std::size_t i = 0; i < doc.size(); ++i) {
            const Json &e = doc.at(i);
            ASSERT_EQ(e.type(), Json::Type::Object) << "event " << i;
            const Json *ph = e.find("ph");
            ASSERT_NE(ph, nullptr) << "event " << i;
            EXPECT_TRUE(known_ph.count(ph->asString()))
                << "event " << i << ": ph " << ph->asString();
            ASSERT_NE(e.find("pid"), nullptr) << "event " << i;
            ASSERT_NE(e.find("tid"), nullptr) << "event " << i;
            if (ph->asString() == "M")
                continue;    // process_name metadata row
            ASSERT_NE(e.find("ts"), nullptr) << "event " << i;
            EXPECT_GE(e.find("ts")->asInt(), 0) << "event " << i;
            if (ph->asString() == "X") {
                ASSERT_NE(e.find("dur"), nullptr) << "event " << i;
                EXPECT_GE(e.find("dur")->asInt(), 0) << "event " << i;
            }
            const Json *cat = e.find("cat");
            ASSERT_NE(cat, nullptr) << "event " << i;
            EXPECT_TRUE(known_cat.count(cat->asString()))
                << "event " << i << ": cat " << cat->asString();
            seen_cat.insert(cat->asString());
        }
    }
    // A fig4 slice must at least produce DRAM commands, queue-depth
    // counters, and driver lane spans.
    EXPECT_TRUE(seen_cat.count("mem"));
    EXPECT_TRUE(seen_cat.count("queue"));
    EXPECT_TRUE(seen_cat.count("lane"));
    std::remove(path.c_str());
}

TEST(TraceFormat, CategoryFilterDropsOtherCategories)
{
    std::string path = tracePath("filter");
    RunOpts opts;
    opts.tracePath = path;
    opts.traceFilter = "mem";

    bool saw_mem = false;
    for (std::uint64_t cell : {0u, 12u, 24u}) {
        opts.onlyCell = cell;
        runTraced("fig4", opts);
        Json doc = parseFile(path);
        ASSERT_EQ(doc.type(), Json::Type::Array) << "cell " << cell;
        for (std::size_t i = 0; i < doc.size(); ++i) {
            const Json *cat = doc.at(i).find("cat");
            if (!cat)
                continue;    // metadata
            EXPECT_EQ(cat->asString(), "mem") << "event " << i;
            saw_mem = true;
        }
    }
    EXPECT_TRUE(saw_mem);
    std::remove(path.c_str());
}

/**
 * Cell payloads carry a "stats" snapshot, but manifest digests must
 * exclude it: a payload with stats and the same payload stripped of
 * them digest identically (old goldens and stats-free payloads from
 * earlier binaries keep validating).
 */
TEST(StatsExport, CellDigestExcludesStatsKey)
{
    Json with = Json::object();
    with["ipc"] = 1.5;
    with["energy"] = 2.25;
    Json stats = Json::object();
    stats["ch0"] = Json::object();
    with["stats"] = stats;

    Json without = Json::object();
    without["ipc"] = 1.5;
    without["energy"] = 2.25;

    EXPECT_EQ(cellDigest(with), cellDigest(without));
    EXPECT_NE(cellDigest(with), hex64(fnv1a64(with.dump())));
    // Non-stats fields still matter.
    Json changed = without;
    changed["ipc"] = 9.0;
    EXPECT_NE(cellDigest(with), cellDigest(changed));
    // Non-object payloads hash their plain serialization.
    Json scalar(3.0);
    EXPECT_EQ(cellDigest(scalar), hex64(fnv1a64(scalar.dump())));
}

TEST(StatsExport, CellPayloadsCarryPerLaneStatSnapshots)
{
    RunOpts opts;
    opts.channels = 2;
    opts.onlyCell = 0;    // one cell is enough
    Json result = runTraced("fig4", opts);
    const Json *cells = result.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_GT(cells->objectItems().size(), 0u);
    const Json &cell = cells->objectItems().begin()->second;
    const Json *stats = cell.find("stats");
    ASSERT_NE(stats, nullptr);
    // One lane snapshot per channel, each with controller counters and
    // the derived row-hit-rate scalar.
    for (const char *lane : {"ch0", "ch1"}) {
        const Json *ch = stats->find(lane);
        ASSERT_NE(ch, nullptr) << lane;
        const Json *counters = ch->find("counters");
        ASSERT_NE(counters, nullptr) << lane;
        EXPECT_NE(counters->find("mc.reads"), nullptr) << lane;
        EXPECT_NE(counters->find("mc.act_demand"), nullptr) << lane;
        const Json *scalars = ch->find("scalars");
        ASSERT_NE(scalars, nullptr) << lane;
        EXPECT_NE(scalars->find("mc.row_hit_rate"), nullptr) << lane;
    }
}

TEST(StatsExport, DiffWildcardIgnoresStatsSubtrees)
{
    Json a = Json::object();
    Json b = Json::object();
    for (const char *idx : {"0", "7"}) {
        Json ca = Json::object();
        ca["ipc"] = 1.0;
        ca["stats"] = Json::object();
        ca["stats"]["x"] = 1;
        Json cb = ca;
        cb["stats"]["x"] = 2;   // differs only under stats
        a["cells"] = a["cells"].isNull() ? Json::object() : a["cells"];
        b["cells"] = b["cells"].isNull() ? Json::object() : b["cells"];
        a["cells"][idx] = ca;
        b["cells"][idx] = cb;
    }
    DiffOptions opts;
    EXPECT_FALSE(structuralDiff(a, b, opts).empty());
    opts.ignorePaths.push_back("cells.*.stats");
    EXPECT_TRUE(structuralDiff(a, b, opts).empty());
    // The wildcard spans exactly one segment: a deeper difference
    // outside stats still reports.
    b["cells"]["0"]["ipc"] = 2.0;
    EXPECT_FALSE(structuralDiff(a, b, opts).empty());
}

} // namespace
} // namespace bh
