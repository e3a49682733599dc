/**
 * @file
 * Reproduces Table 7 (appendix): BlockHammer's configuration parameters
 * for every evaluated RowHammer threshold. Analytical.
 */

#include "bench/experiments.hh"
#include "blockhammer/config.hh"

namespace bh
{

void
benchTable7(BenchContext &ctx)
{
    // Analytic: no simulation cells, runs whole even under --cell.
    if (!ctx.aggregate())
        return;
    Json rows = Json::object();
    TextTable t({"N_RH", "N_RH*", "CBF size", "N_BL", "tCBF ms",
                 "tDelay us", "HB entries"});
    for (std::uint32_t nrh : {32768u, 16384u, 8192u, 4096u, 2048u, 1024u}) {
        auto cfg = BlockHammerConfig::forThreshold(nrh, DramTimings::ddr4());
        Json row = Json::object();
        row["N_RH_star"] = cfg.nRHStar();
        row["cbf_counters"] = cfg.cbf.numCounters;
        row["N_BL"] = cfg.nBL;
        row["tCBF_ms"] = cyclesToNs(cfg.tCBF) / 1e6;
        row["tDelay_us"] = cyclesToNs(cfg.tDelay()) / 1e3;
        row["history_entries"] = cfg.historyEntries();
        rows[strfmt("%u", nrh)] = row;
        t.addRow({strfmt("%uK", nrh / 1024),
                  strfmt("%u", cfg.nRHStar()),
                  strfmt("%u", cfg.cbf.numCounters),
                  strfmt("%u", cfg.nBL),
                  TextTable::num(cyclesToNs(cfg.tCBF) / 1e6, 0),
                  TextTable::num(cyclesToNs(cfg.tDelay()) / 1e3, 2),
                  strfmt("%u", cfg.historyEntries())});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Paper row (N_RH=32K): CBF 1K, N_BL 8K, tCBF 64 ms.\n"
                "Paper row (N_RH=1K): CBF 8K, N_BL 256, tCBF 64 ms.\n\n");
    ctx.result["thresholds"] = rows;
}

} // namespace bh
