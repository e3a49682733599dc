/**
 * @file
 * fuzz: Blacksmith-style evasion fuzzer — adversarial search beyond the
 * hand-written attack catalog.
 *
 * For each mechanism (Baseline + the paper's seven-mechanism comparison
 * set) the experiment runs independent red-team search chains
 * ("islands", one per sweep cell) over the frequency-domain pattern
 * space (workloads/fuzz_patterns.hh) under the same security
 * configuration secsweep uses, and reports the worst disturbance margin
 * ever found per mechanism together with the serialized pattern that
 * achieved it. A pattern that beats the static catalog's worst case is
 * a promotion candidate: append its serialized form to
 * src/workloads/fuzz_regressions.cc and it becomes a permanent secsweep
 * regression cell (see DESIGN.md "Security verification").
 *
 * Every chain is deterministic from a name-derived seed, and each cell
 * is one self-contained chain — so the grid farms, runs cell by cell,
 * and reproduces byte-identically at any --jobs / skip mode like every
 * other experiment.
 */

#include <map>

#include "analysis/red_team.hh"
#include "bench/experiments.hh"
#include "report/report.hh"

namespace bh
{

namespace
{

/** Independent search chains per mechanism (one sweep cell each). */
constexpr unsigned kIslands = 2;

/** Search chains evaluate at the single-channel security config. */
constexpr unsigned kFuzzChannels = 1;

/** Scale-adapted search budget (per chain). */
unsigned
fuzzPopulation(const BenchContext &ctx)
{
    return std::min(8u, ctx.scaled(6, 4));
}

unsigned
fuzzGenerations(const BenchContext &ctx)
{
    return std::min(6u, ctx.scaled(4, 2));
}

} // namespace

void
benchFuzz(BenchContext &ctx)
{
    // Factory-derived mechanism coverage (bench_util.hh): Baseline
    // first, then the paper set, then the zoo — appended last so the
    // pre-zoo island cell indices stay stable.
    const std::vector<std::string> &mechs = securityMechanisms();
    const unsigned population = fuzzPopulation(ctx);
    const unsigned generations = fuzzGenerations(ctx);

    // One runCells phase per mechanism, one cell per island: cells are
    // whole search chains, so the manifest names exactly what each
    // cell computes.
    std::map<std::string, std::vector<Json>> cells_by_mech;
    for (const auto &mech : mechs) {
        cells_by_mech[mech] = ctx.runCells(
            "mech:" + mech, kIslands, [&](std::size_t island) {
                RedTeamConfig rc;
                rc.base = securityConfig(ctx, mech, kFuzzChannels);
                rc.benignApps = securityBenignApps();
                rc.space = defaultFuzzSpace();
                rc.population = population;
                rc.generations = generations;
                rc.survivors = 2;
                // Name-derived chain seed: stable across one-cell runs
                // and binary versions, decorrelated between islands.
                rc.seed = fnv1a64(strfmt("fuzz:%s:island%zu",
                                         mech.c_str(), island));
                RedTeamResult r = redTeamSearch(rc);

                Json cell = Json::object();
                cell["best_pattern"] = r.best.serialized;
                cell["best_margin"] = r.best.margin;
                cell["best_max_window_acts"] =
                    static_cast<std::int64_t>(r.best.maxWindowActs);
                cell["best_bit_flips"] =
                    static_cast<std::int64_t>(r.best.bitFlips);
                cell["best_blocked_acts"] =
                    static_cast<std::int64_t>(r.best.blockedActs);
                cell["best_generation"] =
                    static_cast<std::int64_t>(r.best.generation);
                cell["evaluations"] =
                    static_cast<std::int64_t>(r.evaluations);
                cell["memo_hits"] =
                    static_cast<std::int64_t>(r.memoHits);
                Json gens = Json::array();
                for (const auto &at : r.generationBest) {
                    Json g = Json::object();
                    g["pattern"] = at.serialized;
                    g["margin"] = at.margin;
                    gens.push(std::move(g));
                }
                cell["gen_best"] = std::move(gens);
                return cell;
            });
    }
    if (!ctx.aggregate())
        return;

    // --- report -------------------------------------------------------
    std::printf("--- worst disturbance margin found per mechanism "
                "(%u islands x %u gens x %u pop; '!' = >= 1, bound "
                "violated) ---\n",
                kIslands, generations, population);
    Json worst = Json::object();
    TextTable tt({"mechanism", "worst margin", "window ACTs", "bit flips",
                  "gen", "ACT bound"});
    for (const auto &mech : mechs) {
        const auto &cells = cells_by_mech[mech];
        std::size_t best = 0;
        for (std::size_t i = 1; i < cells.size(); ++i)
            if (cellNum(cells[i], "best_margin") >
                cellNum(cells[best], "best_margin"))
                best = i;
        const Json &cell = cells[best];
        double margin = cellNum(cell, "best_margin");
        tt.addRow({mech, TextTable::num(margin, 3) +
                             (margin >= 1.0 ? "!" : ""),
                   std::to_string(cellInt(cell, "best_max_window_acts")),
                   std::to_string(cellInt(cell, "best_bit_flips")),
                   std::to_string(cellInt(cell, "best_generation")),
                   margin < 1.0 ? "HELD" : "violated"});

        Json w = Json::object();
        w["margin"] = margin;
        w["pattern"] = cell.find("best_pattern")->asString();
        w["max_window_acts"] = cellInt(cell, "best_max_window_acts");
        w["bit_flips"] = cellInt(cell, "best_bit_flips");
        w["island"] = static_cast<std::int64_t>(best);
        worst[mech] = std::move(w);
    }
    std::printf("%s\n", tt.render().c_str());

    std::printf("--- strongest patterns (promotion candidates: add to "
                "src/workloads/fuzz_regressions.cc when they beat the "
                "static catalog's secsweep worst case) ---\n");
    for (const auto &mech : mechs) {
        const Json &w = worst[mech];
        std::printf("  %-12s margin %7.3f  %s\n", mech.c_str(),
                    cellNum(w, "margin"),
                    w.find("pattern")->asString().c_str());
    }
    std::printf("\n");

    bool bh_resisted = cellNum(worst["BlockHammer"], "margin") < 1.0;
    std::printf("BlockHammer under adversarial search: %s\n\n",
                bh_resisted ? "HELD (no searched pattern broke the "
                              "activation bound)"
                            : "VIOLATED");

    ctx.result["mechanisms"] = [&] {
        Json a = Json::array();
        for (const auto &m : mechs)
            a.push(m);
        return a;
    }();
    ctx.result["islands"] = static_cast<std::int64_t>(kIslands);
    ctx.result["population"] = static_cast<std::int64_t>(population);
    ctx.result["generations"] = static_cast<std::int64_t>(generations);
    ctx.result["channels"] = static_cast<std::int64_t>(kFuzzChannels);
    ctx.result["search_space"] = defaultFuzzSpace().describe();
    ctx.result["worst"] = std::move(worst);
    ctx.result["blockhammer_resisted"] = bh_resisted;
}

} // namespace bh
