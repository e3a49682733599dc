#include "bench/registry.hh"

#include <cctype>

#include "bench/experiments.hh"
#include "report/report.hh"

namespace bh
{

const std::vector<BenchInfo> &
benchRegistry()
{
    static const std::vector<BenchInfo> registry = {
        {"table1", "Table 1: BlockHammer parameter values",
         "Table 1 (Section 4), N_RH=32K, DDR4, double-sided model",
         benchTable1},
        {"sec321", "Section 3.2.1: RowHammer likelihood index (RHLI)",
         "observe-only vs full-functional; benign ~0, attack >> 1 "
         "observed, attack < 1 when throttled",
         benchSec321},
        {"sec5", "Section 5: security analysis (Tables 2 and 3)",
         "proof that no access pattern activates a row N_RH times in a "
         "refresh window",
         benchSec5},
        {"table4", "Table 4: hardware cost comparison",
         "Table 4 (Section 6.1); 'x' = mechanism has no published "
         "scaling rule for that threshold",
         benchTable4},
        {"fig4", "Figure 4: single-core normalized execution time / energy",
         "Figure 4 (Section 8.1), 30 benign apps x 7 mechanisms",
         benchFig4},
        {"fig5", "Figure 5: multiprogrammed performance and energy",
         "Figure 5 (Section 8.2), 8-core mixes, normalized to baseline",
         benchFig5},
        {"fig6", "Figure 6: scaling with worsening RowHammer vulnerability",
         "Figure 6 (Section 8.3); compressed thresholds mirror the "
         "paper's 32K..1K sweep",
         benchFig6},
        {"sec84", "Section 8.4: false positives and delay distribution",
         "benign mixes under full-functional BlockHammer",
         benchSec84},
        {"table7", "Table 7: configuration scaling across N_RH",
         "Table 7 (appendix); N_BL = N_RH/4, CBF grows as N_BL shrinks, "
         "tCBF = tREFW = 64 ms",
         benchTable7},
        {"table8", "Table 8: benign application characterization",
         "Table 8 (appendix): MPKI / RBCPKI per app, L/M/H classes",
         benchTable8},
        {"ablation_cbf", "Ablation: CBF size and N_BL selection (Sec 3.1.3)",
         "design-choice sweep behind Table 1's CBF=1K, N_BL=N_RH/4",
         benchAblationCbf},
        {"micro", "Microbenchmarks of latency-critical components",
         "Section 6.2's 0.97 ns safety-query claim: simulated structures "
         "are O(hashes)/O(1)",
         benchMicro},
        {"secsweep", "Security sweep: attack-pattern catalog x mechanisms",
         "Sections 5/8.2 end to end: sliding-tREFW-window ACT margin vs "
         "N_RH per (pattern, mechanism, channels); evasion patterns "
         "included (see --list for the catalog, --attack to filter)",
         benchSecSweep},
        {"fuzz", "Red team: Blacksmith-style frequency-domain fuzzer",
         "adversarial search beyond the hand-written catalog: evolves "
         "frequency-domain patterns against each mechanism and reports "
         "the worst disturbance margin ever found; winners become "
         "permanent secsweep regression cells (see DESIGN.md)",
         benchFuzz},
    };
    return registry;
}

const BenchInfo *
findBench(const std::string &name)
{
    for (const auto &info : benchRegistry())
        if (name == info.name)
            return &info;
    return nullptr;
}

std::uint64_t
parseCellIndex(const char *text)
{
    char *end = nullptr;
    std::uint64_t cell = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0')
        fatal("--cell wants a global cell index (see bh_bench --list), "
              "got '%s'",
              text);
    return cell;
}

/**
 * Grid identity hash: a farm only combines cells whose runs agree on
 * the experiment, scale, channel count, cell space, and per-cell
 * seeding scheme. The cellSeed probe folds the seeding algorithm itself
 * into the hash, so a change to the seed mixing can never silently
 * mix with cells of an older binary. Single-channel grids hash exactly
 * as before this field existed, so checked-in goldens keep their
 * fingerprints.
 */
std::string
benchGridFingerprint(const BenchInfo &info, const BenchContext &ctx)
{
    std::uint64_t h = fnv1a64(strfmt("bench-format-%d", kBenchFormatVersion));
    h = fnv1a64(info.name, h);
    h = fnv1a64(Json::formatDouble(ctx.scale), h);
    if (ctx.channels != 1)
        h = fnv1a64(strfmt("channels-%u", ctx.channels), h);
    // An --attack filter reshapes the cell grid; like channels, the
    // default (no filter) hashes exactly as before the field existed.
    if (!ctx.attackFilter.empty())
        h = fnv1a64("attack-" + ctx.attackFilter, h);
    h = fnv1a64(std::to_string(ctx.nextCell), h);
    for (const auto &phase : ctx.phases) {
        h = fnv1a64(phase.label, h);
        h = fnv1a64(std::to_string(phase.count), h);
    }
    h = fnv1a64(hex64(Runner::cellSeed(h, ctx.nextCell)), h);
    return hex64(h);
}

void
runBench(const BenchInfo &info, BenchContext &ctx)
{
    if (ctx.mode != BenchContext::CellMode::Enumerate)
        benchHeader(info.title, info.paperRef, ctx.scale);
    ctx.result = Json::object();
    ctx.result["experiment"] = info.name;
    ctx.result["reproduces"] = info.paperRef;
    ctx.result["scale"] = ctx.scale;
    ctx.result["manifest"];     // reserve the slot: experiment fields follow
    ctx.cells = Json::object();
    ctx.nextCell = 0;
    ctx.cellsRun = 0;
    ctx.phases.clear();

    info.fn(ctx);
    if (ctx.onlyCell && ctx.nextCell > 0 && *ctx.onlyCell >= ctx.nextCell)
        fatal("%s: cell %llu is outside the %llu-cell grid (see bh_bench "
              "--list)",
              info.name, static_cast<unsigned long long>(*ctx.onlyCell),
              static_cast<unsigned long long>(ctx.nextCell));

    Json manifest = Json::object();
    manifest["format_version"] = kBenchFormatVersion;
    manifest["experiment"] = info.name;
    manifest["scale"] = ctx.scale;
    // Always shard 0 of 1: manifest format version 1 has these two
    // fields, and every checked-in golden carries them.
    manifest["shard_index"] = 0;
    manifest["shard_count"] = 1;
    // Self-description only when non-default, keeping single-channel
    // reports byte-identical to older binaries (the fingerprint already
    // separates the grids).
    if (ctx.channels != 1)
        manifest["channels"] = ctx.channels;
    if (!ctx.attackFilter.empty())
        manifest["attack_filter"] = ctx.attackFilter;
    manifest["partial"] = !ctx.aggregate();
    manifest["cell_total"] = ctx.nextCell;
    manifest["cells_run"] = ctx.cellsRun;
    manifest["fingerprint"] = benchGridFingerprint(info, ctx);
    Json phases = Json::array();
    for (const auto &phase : ctx.phases) {
        Json p = Json::object();
        p["label"] = phase.label;
        p["first_cell"] = phase.firstCell;
        p["count"] = phase.count;
        phases.push(std::move(p));
    }
    manifest["phases"] = std::move(phases);
    Json digests = Json::object();
    for (const auto &kv : ctx.cells.objectItems())
        digests[kv.first] = cellDigest(kv.second);
    manifest["cell_digests"] = std::move(digests);
    ctx.result["manifest"] = std::move(manifest);
    ctx.result["cells"] = std::move(ctx.cells);
}

} // namespace bh
