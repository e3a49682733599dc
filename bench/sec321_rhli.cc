/**
 * @file
 * Reproduces the Section 3.2.1 RHLI experiment: the RowHammer likelihood
 * index of benign threads vs. a RowHammer attack thread, in observe-only
 * and full-functional modes.
 *
 * Paper result: benign RHLI = 0 in both modes; attacks average RHLI 10.9
 * (6.9..15.5) in observe-only mode and drop well below 1 (54x reduction)
 * in full-functional mode.
 */

#include <tuple>

#include "bench/experiments.hh"
#include "blockhammer/blockhammer.hh"

namespace bh
{

namespace
{

struct RhliStats
{
    std::vector<double> attack;
    std::vector<double> benignMax;
};

RhliStats
measure(BenchContext &ctx, const std::string &label,
        const std::string &mode, const std::vector<MixSpec> &mixes)
{
    std::vector<Json> cells = ctx.runCells(
        label, mixes.size(), [&](std::size_t i) {
            const MixSpec &mix = mixes[i];
            ExperimentConfig cfg = benchConfig(ctx, mode);
            auto system = buildSystem(cfg, mix);
            system->run(cfg.warmupCycles + cfg.runCycles);
            MemSystem &mem = system->mem();
            Json attack = Json::array();
            Json benign = Json::array();
            for (unsigned t = 0; t < cfg.threads; ++t) {
                // A thread's RHLI is its worst likelihood across the
                // per-channel BlockHammer instances.
                double rhli = 0.0;
                for (unsigned ch = 0; ch < mem.channels(); ++ch) {
                    auto *bh = dynamic_cast<BlockHammer *>(
                        &mem.mitigation(ch));
                    if (bh == nullptr)
                        fatal("mechanism is not BlockHammer");
                    rhli = std::max(
                        rhli, bh->maxRhli(static_cast<ThreadId>(t)));
                }
                if (static_cast<int>(t) == mix.attackSlot())
                    attack.push(rhli);
                else
                    benign.push(rhli);
            }
            Json cell = Json::object();
            cell["attack"] = std::move(attack);
            cell["benign"] = std::move(benign);
            return cell;
        });

    RhliStats out;
    for (const Json &c : cells) {
        if (c.isNull())
            continue;    // cell skipped by a one-cell partial run
        if (const Json *attack = c.find("attack"))
            for (std::size_t i = 0; i < attack->size(); ++i)
                out.attack.push_back(attack->at(i).asDouble());
        if (const Json *benign = c.find("benign"))
            for (std::size_t i = 0; i < benign->size(); ++i)
                out.benignMax.push_back(benign->at(i).asDouble());
    }
    return out;
}

std::tuple<double, double, double>
stats(const std::vector<double> &v)
{
    double lo = v.empty() ? 0 : v[0], hi = lo, sum = 0;
    for (double x : v) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        sum += x;
    }
    return {v.empty() ? 0 : sum / static_cast<double>(v.size()), lo, hi};
}

Json
report(const char *mode, const RhliStats &s)
{
    auto [am, alo, ahi] = stats(s.attack);
    auto [bm, blo, bhi] = stats(s.benignMax);
    (void)blo;
    std::printf("  %-16s attack RHLI avg %.2f (min %.2f, max %.2f) | "
                "benign RHLI avg %.4f (max %.4f)\n",
                mode, am, alo, ahi, bm, bhi);
    Json out = Json::object();
    out["attack_avg"] = am;
    out["attack_min"] = alo;
    out["attack_max"] = ahi;
    out["benign_avg"] = bm;
    out["benign_max"] = bhi;
    return out;
}

} // namespace

void
benchSec321(BenchContext &ctx)
{
    unsigned n_mixes = ctx.scaled(3);
    auto mixes = makeAttackMixes(n_mixes, 99);

    RhliStats observe = measure(ctx, "observe", "BlockHammer-Observe",
                                mixes);
    RhliStats full = measure(ctx, "full", "BlockHammer", mixes);
    if (!ctx.aggregate())
        return;
    ctx.result["observe_only"] = report("observe-only", observe);
    ctx.result["full_functional"] = report("full-functional", full);

    double obs_avg = mean(observe.attack);
    double full_avg = mean(full.attack);
    double reduction = ratio(obs_avg, full_avg);
    std::printf("\n  attack RHLI reduction (observe -> full): %.1fx "
                "(paper: 54x)\n", reduction);
    std::printf("  paper observe-only attack RHLI: avg 10.9 "
                "(6.9..15.5); benign: 0\n\n");
    ctx.result["rhli_reduction"] = reduction;
}

} // namespace bh
