/**
 * @file
 * Microbenchmarks of the latency-critical components, supporting Section
 * 6.2's claim that BlockHammer's safety query is fast enough to hide
 * behind DRAM access latency: in hardware the query takes 0.97 ns; here
 * we show the simulated data structures are O(hashes) and O(1),
 * independent of tracked-row count.
 *
 * Self-timed (no google-benchmark dependency): each component runs a
 * fixed, scale-derived iteration count. Wall-clock ns/op goes to stdout
 * only; the JSON keeps the deterministic fields (iterations and a result
 * checksum), so BENCH_micro.json is byte-stable across runs and job
 * counts even though timings jitter.
 */

#include <chrono>

#include "bench/experiments.hh"
#include "blockhammer/blockhammer.hh"
#include "dram/address_map.hh"
#include "mem/controller.hh"
#include "mitigations/factory.hh"

namespace bh
{

namespace
{

BlockHammerConfig
microBhConfig()
{
    auto cfg = BlockHammerConfig::forThreshold(32768, DramTimings::ddr4());
    cfg.seed = 7;
    return cfg;
}

struct MicroResult
{
    std::string name;
    std::uint64_t iterations;
    std::uint64_t checksum;     ///< fold of all computed values
    double nsPerOp;
};

/**
 * Optimization barrier for ops whose result is their side effect on
 * `obj` (inserts, onActivate): forces the compiler to assume the
 * object's memory is read, so the op cannot be elided even under LTO.
 */
template <typename T>
inline void
clobber(T &obj)
{
    asm volatile("" : : "r"(&obj) : "memory");
}

/**
 * Time `op(i)` over `iters` iterations. The op returns a value that is
 * folded into the checksum — both the optimization barrier and the
 * deterministic JSON fingerprint. Templated on the callable so the
 * timed loop body inlines (no per-iteration std::function dispatch).
 */
template <typename Op>
MicroResult
timeLoop(const std::string &name, std::uint64_t iters, const Op &op)
{
    std::uint64_t checksum = 0;
    // Short warmup round to fault in caches before the timed loop.
    for (std::uint64_t i = 0; i < iters / 16 + 1; ++i)
        checksum ^= op(i);
    checksum = 0;
    // bh-lint: allow(nondet) microbenchmark timing harness; ns/op is reported as timing, not simulation output
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        checksum = (checksum * 1099511628211ull) ^ op(i);
    // bh-lint: allow(nondet) microbenchmark timing harness; ns/op is reported as timing, not simulation output
    auto t1 = std::chrono::steady_clock::now();
    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    return {name, iters, checksum, ns / static_cast<double>(iters)};
}

} // namespace

void
benchMicro(BenchContext &ctx)
{
    // Self-timed, no simulation cells: every run (a --cell run, a
    // replay) re-times the loops; only the deterministic iteration
    // counts and checksums reach the JSON, so outputs stay
    // byte-identical.
    if (!ctx.aggregate())
        return;
    const std::uint64_t iters =
        static_cast<std::uint64_t>(200'000 * ctx.scale);
    std::vector<MicroResult> results;

    {
        H3Hash h(10, 3);
        std::uint64_t key = 0x12345;
        results.push_back(timeLoop("h3_hash", iters, [&](std::uint64_t) {
            std::uint64_t v = h.hash(key);
            key = key * 6364136223846793005ull + 1;
            return v;
        }));
    }
    {
        CountingBloomFilter cbf(microBhConfig().cbf, 1);
        std::uint64_t key = 1;
        results.push_back(timeLoop("cbf_insert", iters, [&](std::uint64_t) {
            cbf.insert(key);
            clobber(cbf);
            key = key * 6364136223846793005ull + 3;
            return key;
        }));
    }
    {
        CountingBloomFilter cbf(microBhConfig().cbf, 1);
        for (std::uint64_t k = 0; k < 4096; ++k)
            cbf.insert(k);
        std::uint64_t key = 1;
        results.push_back(timeLoop("cbf_count", iters, [&](std::uint64_t) {
            std::uint64_t v = cbf.count(key);
            key = (key + 97) % 8192;
            return v;
        }));
    }
    {
        // The "is this ACT RowHammer-safe?" query of Figure 2, with the
        // history buffer populated to the paper's occupancy.
        RowBlocker rb(microBhConfig());
        Cycle now = 0;
        for (int i = 0; i < 500; ++i) {
            rb.onActivate(i % 16, static_cast<RowId>(i * 13), now);
            now += 30;
        }
        RowId row = 0;
        results.push_back(
            timeLoop("rowblocker_safety_query", iters, [&](std::uint64_t) {
                std::uint64_t v = rb.isSafe(0, row, now);
                row = (row + 1) % 65536;
                return v;
            }));
    }
    {
        HistoryBuffer hb(891, 24864);
        Cycle now = 0;
        for (int i = 0; i < 800; ++i) {
            hb.insert(static_cast<std::uint64_t>(i), now);
            now += 28;
        }
        std::uint64_t key = 0;
        results.push_back(
            timeLoop("history_buffer_lookup", iters, [&](std::uint64_t) {
                std::uint64_t v = hb.recentlyActivated(key, now);
                key = (key + 7) % 2048;
                return v;
            }));
    }
    {
        AddressMapper mapper(DramOrg::paperConfig(), MapScheme::kMop);
        Addr addr = 0;
        results.push_back(
            timeLoop("address_decode", iters, [&](std::uint64_t) {
                auto loc = mapper.decode(addr);
                addr += 4096 + 64;
                return static_cast<std::uint64_t>(loc.row) ^ loc.bank;
            }));
    }

    // Per-ACT bookkeeping cost of every registered mechanism (Baseline
    // has none). Mechanisms that schedule victim refreshes need a
    // controller; use a throwaway device + controller.
    DramTimings timings = DramTimings::ddr4();
    DramDevice dev(DramOrg::paperConfig(), timings);
    NullMitigation null_mitig;
    MemController ctrl(dev, ControllerConfig{}, null_mitig, nullptr,
                       nullptr);
    for (const auto &mech_name : mitigationNames()) {
        if (mech_name == "Baseline")
            continue;
        MitigationSettings settings;
        settings.seed = 11;
        auto mech = makeMitigation(mech_name, settings);
        mech->setController(&ctrl);
        Cycle now = 0;
        RowId row = 0;
        results.push_back(timeLoop(
            "on_activate_" + mech_name, iters, [&](std::uint64_t) {
                mech->onActivate(static_cast<unsigned>(row % 16),
                                 row % 65536, 0, now);
                clobber(*mech);
                row += 977;
                now += 30;
                return static_cast<std::uint64_t>(row);
            }));
    }

    TextTable t({"component", "iterations", "ns/op", "checksum"});
    Json components = Json::object();
    for (const auto &r : results) {
        Json row = Json::object();
        row["iterations"] = r.iterations;
        row["checksum"] = strfmt("%016llx",
                                 static_cast<unsigned long long>(r.checksum));
        components[r.name] = row;
        t.addRow({r.name, strfmt("%llu",
                                 static_cast<unsigned long long>(r.iterations)),
                  TextTable::num(r.nsPerOp, 1),
                  strfmt("%016llx",
                         static_cast<unsigned long long>(r.checksum))});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Timings are wall-clock and jitter run to run; the JSON\n"
                "records only the deterministic iteration counts and\n"
                "checksums.\n\n");
    ctx.result["components"] = components;
}

} // namespace bh
