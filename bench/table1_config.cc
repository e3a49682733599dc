/**
 * @file
 * Reproduces Table 1: BlockHammer parameter values for the paper's DDR4
 * timing specification and RowHammer threshold of 32K, tuned for
 * double-sided attacks. Purely analytical (Equations 1 and 3).
 */

#include "bench/experiments.hh"
#include "blockhammer/config.hh"

namespace bh
{

void
benchTable1(BenchContext &ctx)
{
    // Analytic: no simulation cells, runs whole even under --cell.
    if (!ctx.aggregate())
        return;
    auto timings = DramTimings::ddr4();
    auto cfg = BlockHammerConfig::forThreshold(32768, timings);

    TextTable t({"parameter", "paper", "this repo"});
    t.addRow({"N_RH", "32K", strfmt("%u", cfg.nRH)});
    t.addRow({"N_RH*", "16K", strfmt("%u", cfg.nRHStar())});
    t.addRow({"tREFW (ms)", "64",
              TextTable::num(cyclesToNs(cfg.tREFW) / 1e6, 0)});
    t.addRow({"tRC (ns)", "46.25", TextTable::num(cyclesToNs(cfg.tRC), 2)});
    t.addRow({"tFAW (ns)", "35", TextTable::num(cyclesToNs(cfg.tFAW), 2)});
    t.addRow({"banks", "16", strfmt("%u", cfg.banks)});
    t.addRow({"N_BL", "8K", strfmt("%u", cfg.nBL)});
    t.addRow({"tCBF (ms)", "64",
              TextTable::num(cyclesToNs(cfg.tCBF) / 1e6, 0)});
    t.addRow({"tDelay (us)", "7.7",
              TextTable::num(cyclesToNs(cfg.tDelay()) / 1e3, 2)});
    t.addRow({"CBF size (counters/bank)", "1K",
              strfmt("%u", cfg.cbf.numCounters)});
    t.addRow({"CBF hash functions", "4 x H3",
              strfmt("%u x H3", cfg.cbf.numHashes)});
    t.addRow({"History buffer (entries/rank)", "887",
              strfmt("%u", cfg.historyEntries())});
    t.addRow({"AttackThrottler counters/<thread,bank>", "2", "2"});

    std::printf("%s\n", t.render().c_str());

    std::printf("Worst-case blast model (Section 4): r_blast=6, "
                "c_k=0.5^(k-1):\n");
    BlockHammerConfig worst = cfg;
    worst.blast = BlastModel::worstCase();
    double worst_ratio = static_cast<double>(worst.nRHStar()) / worst.nRH;
    std::printf("  N_RH* = %.4f x N_RH (paper: 0.2539 x N_RH)\n\n",
                worst_ratio);

    Json params = Json::object();
    params["N_RH"] = cfg.nRH;
    params["N_RH_star"] = cfg.nRHStar();
    params["tREFW_ms"] = cyclesToNs(cfg.tREFW) / 1e6;
    params["tRC_ns"] = cyclesToNs(cfg.tRC);
    params["tFAW_ns"] = cyclesToNs(cfg.tFAW);
    params["banks"] = cfg.banks;
    params["N_BL"] = cfg.nBL;
    params["tCBF_ms"] = cyclesToNs(cfg.tCBF) / 1e6;
    params["tDelay_us"] = cyclesToNs(cfg.tDelay()) / 1e3;
    params["cbf_counters"] = cfg.cbf.numCounters;
    params["cbf_hashes"] = cfg.cbf.numHashes;
    params["history_entries"] = cfg.historyEntries();
    ctx.result["params"] = params;
    ctx.result["worst_case_nrh_star_ratio"] = worst_ratio;
}

} // namespace bh
