/**
 * @file
 * bh_farm: fault-tolerant sweep coordinator for bh_bench grids.
 *
 *   bh_farm init DIR --experiment NAME [grid/policy options]
 *   bh_farm work DIR [--worker NAME] [--faults SPEC]
 *   bh_farm run  DIR --workers N [--faults SPEC]
 *   bh_farm status DIR
 *   bh_farm merge DIR [-o FILE]
 *
 * `init` stamps DIR with the experiment's grid (the fingerprint every
 * BENCH_*.json manifest carries) and the retry/lease policy. `work` is one
 * worker process: it leases cells, runs them through the bench
 * registry, and commits results until the grid completes. `run` is the
 * convenience coordinator: it forks N `work` processes against DIR,
 * respawns ones that die (SIGKILL included), and reports. `merge`
 * collects the committed payloads and replays the experiment's
 * aggregation — the output is byte-identical to a plain `bh_bench`
 * run no matter how many crashes, retries, or duplicate executions the
 * farm absorbed.
 *
 * Fault injection: --faults (or the BH_FARM_FAULTS environment
 * variable) arms a deterministic FaultPlan — see src/farm/fault.hh for
 * the spec grammar (kill@3,truncate@5,... or random:SEED:COUNT).
 */

#include <csignal>
#include <cstring>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/registry.hh"
#include "common/fsio.hh"
#include "farm/farm.hh"
#include "farm/journal.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: bh_farm init DIR --experiment NAME [options]\n"
        "       bh_farm work DIR [options]\n"
        "       bh_farm run DIR --workers N [options]\n"
        "       bh_farm status DIR\n"
        "       bh_farm merge DIR [-o FILE]\n"
        "\n"
        "init: create a farm directory for one experiment grid.\n"
        "  --experiment NAME   registered experiment (see bh_bench --list)\n"
        "  --scale X           fidelity multiplier >= 0.1 (default 1)\n"
        "  --channels N        DRAM channels (power of two, default 1)\n"
        "  --channel-threads N lane threads per cell (default 1)\n"
        "  --attack NAME       attack-catalog filter (secsweep)\n"
        "  --max-attempts K    failures before a cell is poisoned "
        "(default 3)\n"
        "  --cell-budget S     per-cell wall-clock watchdog seconds\n"
        "                      (default 600; 0 disables)\n"
        "  --stale-after S     heartbeat age that marks a lease stale\n"
        "                      (default 60)\n"
        "  --backoff-base S    retry backoff base (default 0.5)\n"
        "  --backoff-cap S     retry backoff ceiling (default 30)\n"
        "  --verify-every N    re-execute 1-in-N cells and require digest\n"
        "                      agreement (0 = off, 1 = every cell)\n"
        "\n"
        "work: one worker process; leases and runs cells until the grid\n"
        "completes (exit 0), only poisoned cells remain (exit 4), or a\n"
        "fault/watchdog kills it (exit 3).\n"
        "  --worker NAME       worker id (default: host pid)\n"
        "  --jobs N            threads for in-cell parallelism (default 0\n"
        "                      = all cores)\n"
        "  --faults SPEC       arm a deterministic fault plan (also read\n"
        "                      from BH_FARM_FAULTS)\n"
        "\n"
        "run: fork N workers against DIR, respawn dead ones (bounded),\n"
        "and wait for the farm to finish.\n"
        "  --workers N         worker processes (default 2)\n"
        "  --jobs N, --faults SPEC   forwarded to every worker\n"
        "\n"
        "merge: replay aggregation over the committed cells.\n"
        "  -o, --out FILE      output (default BENCH_<experiment>.json)\n");
}

double
parseSeconds(const char *what, const char *text)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (!end || *end != '\0' || v < 0.0)
        bh::fatal("%s wants a non-negative number, got '%s'", what, text);
    return v;
}

std::string
faultSpecFromEnv(const std::string &cli_spec)
{
    if (!cli_spec.empty())
        return cli_spec;
    const char *env = std::getenv("BH_FARM_FAULTS");
    return env ? env : "";
}

/** Enumerate `info`'s grid for the spec'd scale/channels/filter. */
void
probeGrid(const bh::BenchInfo &info, const bh::FarmSpec &spec,
          bh::Runner &runner, bh::BenchContext &probe)
{
    probe.scale = spec.scale;
    probe.channels = spec.channels;
    probe.attackFilter = spec.attackFilter;
    probe.runner = &runner;
    probe.mode = bh::BenchContext::CellMode::Enumerate;
    runBench(info, probe);
}

int
cmdInit(const std::string &dir, const std::vector<std::string> &args)
{
    using namespace bh;

    FarmSpec spec;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> const char * {
            if (++i >= args.size())
                fatal("option %s needs a value", arg.c_str());
            return args[i].c_str();
        };
        if (arg == "--experiment") {
            spec.experiment = value();
        } else if (arg == "--scale") {
            spec.scale = parseSeconds("--scale", value());
            if (spec.scale < 0.1)
                fatal("--scale must be >= 0.1");
        } else if (arg == "--channels") {
            spec.channels = static_cast<unsigned>(std::atoi(value()));
            if (spec.channels < 1 || spec.channels > 64 ||
                !isPow2(spec.channels))
                fatal("--channels must be a power of two in [1, 64]");
        } else if (arg == "--channel-threads") {
            spec.channelThreads = static_cast<unsigned>(std::atoi(value()));
            if (spec.channelThreads < 1 || spec.channelThreads > 64)
                fatal("--channel-threads must be in [1, 64]");
        } else if (arg == "--attack") {
            spec.attackFilter = value();
        } else if (arg == "--max-attempts") {
            int k = std::atoi(value());
            if (k < 1 || k > 100)
                fatal("--max-attempts must be in [1, 100]");
            spec.policy.maxAttempts = static_cast<unsigned>(k);
        } else if (arg == "--cell-budget") {
            spec.policy.cellBudgetS = parseSeconds("--cell-budget", value());
        } else if (arg == "--stale-after") {
            spec.policy.staleAfterS = parseSeconds("--stale-after", value());
        } else if (arg == "--backoff-base") {
            spec.policy.backoffBaseS =
                parseSeconds("--backoff-base", value());
        } else if (arg == "--backoff-cap") {
            spec.policy.backoffCapS = parseSeconds("--backoff-cap", value());
        } else if (arg == "--verify-every") {
            int n = std::atoi(value());
            if (n < 0)
                fatal("--verify-every must be >= 0");
            spec.policy.verifyEvery = static_cast<unsigned>(n);
        } else {
            fatal("bh_farm init: unknown option %s", arg.c_str());
        }
    }
    if (spec.experiment.empty())
        fatal("bh_farm init: --experiment is required");
    const BenchInfo *info = findBench(spec.experiment);
    if (!info)
        fatal("unknown experiment '%s' (see bh_bench --list)",
              spec.experiment.c_str());

    Runner runner(1);
    BenchContext probe;
    probeGrid(*info, spec, runner, probe);
    if (probe.nextCell == 0)
        fatal("%s is analytic (no sweep cells); run it with bh_bench "
              "directly — a farm has nothing to distribute",
              spec.experiment.c_str());
    spec.cellTotal = probe.nextCell;
    spec.fingerprint = benchGridFingerprint(*info, probe);

    SystemFarmClock clock;
    std::string err;
    if (!Farm::init(dir, spec, clock, err))
        fatal("bh_farm init: %s", err.c_str());
    std::printf("bh_farm: %s: %s grid, %llu cells, fingerprint %s\n",
                dir.c_str(), spec.experiment.c_str(),
                static_cast<unsigned long long>(spec.cellTotal),
                spec.fingerprint.c_str());
    return 0;
}

int
cmdWork(const std::string &dir, const std::vector<std::string> &args)
{
    using namespace bh;

    std::string worker;
    std::string fault_spec;
    unsigned jobs = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> const char * {
            if (++i >= args.size())
                fatal("option %s needs a value", arg.c_str());
            return args[i].c_str();
        };
        if (arg == "--worker")
            worker = value();
        else if (arg == "--faults")
            fault_spec = value();
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(std::atoi(value()));
        else
            fatal("bh_farm work: unknown option %s", arg.c_str());
    }
    if (worker.empty())
        worker = strfmt("pid%d", static_cast<int>(::getpid()));

    SystemFarmClock clock;
    Farm farm;
    std::string err;
    if (!Farm::open(dir, clock, farm, err))
        fatal("bh_farm work: %s", err.c_str());
    const FarmSpec &spec = farm.spec();

    FaultPlan faults;
    std::string spec_text = faultSpecFromEnv(fault_spec);
    if (!FaultPlan::parse(spec_text, spec.cellTotal, faults, err))
        fatal("bh_farm work: --faults: %s", err.c_str());

    const BenchInfo *info = findBench(spec.experiment);
    if (!info)
        fatal("farm experiment '%s' is not in this binary's registry",
              spec.experiment.c_str());
    // Guard against binary drift: the registry of this build must still
    // produce the grid the farm was initialized for.
    Runner runner(jobs);
    {
        BenchContext probe;
        probeGrid(*info, spec, runner, probe);
        std::string fp = benchGridFingerprint(*info, probe);
        if (fp != spec.fingerprint || probe.nextCell != spec.cellTotal)
            fatal("grid fingerprint %s (%llu cells) does not match the "
                  "farm's %s (%llu cells); the binary diverged from the "
                  "one that ran init",
                  fp.c_str(),
                  static_cast<unsigned long long>(probe.nextCell),
                  spec.fingerprint.c_str(),
                  static_cast<unsigned long long>(spec.cellTotal));
    }

    // One leased cell per execution: a one-cell run (bh_bench --cell)
    // goes through the standard runCells path, so payload bytes match
    // bh_bench exactly.
    auto runCell = [&](std::uint64_t cell) -> Json {
        BenchContext ctx;
        ctx.scale = spec.scale;
        ctx.channels = spec.channels;
        ctx.channelThreads = spec.channelThreads;
        ctx.attackFilter = spec.attackFilter;
        ctx.runner = &runner;
        ctx.onlyCell = cell;
        runBench(*info, ctx);
        const Json *cells = ctx.result.find("cells");
        const Json *payload =
            cells ? cells->find(std::to_string(cell)) : nullptr;
        if (!payload || payload->isNull())
            throw std::runtime_error(strfmt(
                "experiment produced no payload for cell %llu",
                static_cast<unsigned long long>(cell)));
        return *payload;
    };

    farm.heartbeat(worker);
    std::printf("bh_farm: worker %s on %s (%s, %llu cells)\n",
                worker.c_str(), dir.c_str(), spec.experiment.c_str(),
                static_cast<unsigned long long>(spec.cellTotal));
    for (;;) {
        Farm::Claim claim;
        double hint = 1.0;
        Farm::Pick pick = farm.pickWork(worker, faults, claim, &hint);
        if (pick == Farm::Pick::kComplete) {
            std::printf("bh_farm: worker %s: grid complete\n",
                        worker.c_str());
            return 0;
        }
        if (pick == Farm::Pick::kStuck) {
            std::fprintf(stderr,
                         "bh_farm: worker %s: only poisoned cells remain; "
                         "see %s\n", worker.c_str(),
                         farm.paths().poisonDir().c_str());
            return 4;
        }
        if (pick == Farm::Pick::kWait) {
            farm.heartbeat(worker);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(std::min(hint, 5.0)));
            continue;
        }

        std::string detail;
        Farm::RunOutcome outcome =
            farm.runClaim(worker, claim, runCell, faults, detail);
        switch (outcome) {
          case Farm::RunOutcome::kCommitted:
          case Farm::RunOutcome::kDupAgree:
          case Farm::RunOutcome::kVerifyOk:
          case Farm::RunOutcome::kVerifyMoot:
            break;
          case Farm::RunOutcome::kDupMismatch:
          case Farm::RunOutcome::kVerifyMismatch:
          case Farm::RunOutcome::kFailed:
            std::fprintf(stderr, "bh_farm: worker %s: cell %llu: %s\n",
                         worker.c_str(),
                         static_cast<unsigned long long>(claim.cell),
                         detail.c_str());
            break;
          case Farm::RunOutcome::kWatchdog:
            // The runner thread is wedged past its budget; the failure
            // is recorded on disk, so die hard and let a respawned
            // worker (or a peer) carry on.
            std::fprintf(stderr, "bh_farm: worker %s: cell %llu: %s; "
                         "exiting\n", worker.c_str(),
                         static_cast<unsigned long long>(claim.cell),
                         detail.c_str());
            std::_Exit(3);
          case Farm::RunOutcome::kKilled:
            // Injected SIGKILL-equivalent: no cleanup of any kind.
            std::_Exit(3);
        }
    }
}

int
cmdRun(const std::string &dir, const std::vector<std::string> &args,
       const char *self)
{
    using namespace bh;

    unsigned workers = 2;
    unsigned jobs = 0;
    std::string fault_spec;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> const char * {
            if (++i >= args.size())
                fatal("option %s needs a value", arg.c_str());
            return args[i].c_str();
        };
        if (arg == "--workers") {
            int n = std::atoi(value());
            if (n < 1 || n > 256)
                fatal("--workers must be in [1, 256]");
            workers = static_cast<unsigned>(n);
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(std::atoi(value()));
        } else if (arg == "--faults") {
            fault_spec = value();
        } else {
            fatal("bh_farm run: unknown option %s", arg.c_str());
        }
    }

    SystemFarmClock clock;
    Farm farm;
    std::string err;
    if (!Farm::open(dir, clock, farm, err))
        fatal("bh_farm run: %s", err.c_str());
    fault_spec = faultSpecFromEnv(fault_spec);

    // Spawn-and-reap loop: a worker that dies (injected kill fault,
    // real SIGKILL, watchdog exit) is respawned with a fresh id until
    // the farm completes, sticks, or the respawn budget runs out —
    // a crash-looping fleet must terminate, not spin.
    const unsigned max_spawns = workers * (farm.spec().policy.maxAttempts
                                           + 2) + 8;
    unsigned spawned = 0;
    unsigned round = 0;
    for (;;) {
        FarmStatus st = farm.status("coordinator");
        if (st.complete)
            break;
        if (!st.poisoned.empty() &&
            st.doneCells + st.poisoned.size() >= st.cellTotal)
            break;  // only poisoned cells remain
        if (spawned >= max_spawns) {
            std::fprintf(stderr, "bh_farm: respawn budget (%u) exhausted "
                         "with %llu/%llu cells done\n", max_spawns,
                         static_cast<unsigned long long>(st.doneCells),
                         static_cast<unsigned long long>(st.cellTotal));
            return 5;
        }

        std::vector<pid_t> pids;
        for (unsigned w = 0; w < workers && spawned < max_spawns; ++w) {
            std::string worker_id = strfmt("w%u-r%u", w, round);
            std::string jobs_str = std::to_string(jobs);
            pid_t pid = ::fork();
            if (pid < 0)
                fatal("fork: %s", std::strerror(errno));
            if (pid == 0) {
                std::vector<const char *> argv = {
                    self, "work", dir.c_str(), "--worker",
                    worker_id.c_str(), "--jobs", jobs_str.c_str()};
                if (!fault_spec.empty()) {
                    argv.push_back("--faults");
                    argv.push_back(fault_spec.c_str());
                }
                argv.push_back(nullptr);
                ::execv("/proc/self/exe",
                        const_cast<char *const *>(argv.data()));
                std::fprintf(stderr, "bh_farm: execv: %s\n",
                             std::strerror(errno));
                std::_Exit(127);
            }
            pids.push_back(pid);
            ++spawned;
        }

        for (pid_t pid : pids) {
            int status = 0;
            if (::waitpid(pid, &status, 0) < 0)
                continue;
            if (WIFSIGNALED(status))
                std::printf("bh_farm: worker pid %d killed by signal %d; "
                            "its leases will be stolen\n",
                            static_cast<int>(pid), WTERMSIG(status));
            else if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
                std::printf("bh_farm: worker pid %d exited %d\n",
                            static_cast<int>(pid), WEXITSTATUS(status));
        }
        ++round;
    }

    FarmStatus st = farm.status("coordinator");
    std::printf("bh_farm: %llu/%llu cells done, %llu poisoned, "
                "%u worker process(es) spawned\n",
                static_cast<unsigned long long>(st.doneCells),
                static_cast<unsigned long long>(st.cellTotal),
                static_cast<unsigned long long>(st.poisoned.size()),
                spawned);
    return st.complete ? 0 : 4;
}

int
cmdStatus(const std::string &dir)
{
    using namespace bh;

    SystemFarmClock clock;
    Farm farm;
    std::string err;
    if (!Farm::open(dir, clock, farm, err))
        fatal("bh_farm status: %s", err.c_str());
    const FarmSpec &spec = farm.spec();
    FarmStatus st = farm.status();

    std::printf("farm %s: %s, scale %s, %u channel(s), fingerprint %s\n",
                dir.c_str(), spec.experiment.c_str(),
                Json::formatDouble(spec.scale).c_str(), spec.channels,
                spec.fingerprint.c_str());
    std::printf("  cells: %llu/%llu done",
                static_cast<unsigned long long>(st.doneCells),
                static_cast<unsigned long long>(st.cellTotal));
    if (spec.policy.verifyEvery > 0)
        std::printf(", %llu/%llu verified",
                    static_cast<unsigned long long>(st.verifiedCells),
                    static_cast<unsigned long long>(st.verifyWanted));
    std::printf("\n  leases: %llu active, %llu stale; %llu in backoff, "
                "%llu pending\n",
                static_cast<unsigned long long>(st.activeLeases),
                static_cast<unsigned long long>(st.staleLeases),
                static_cast<unsigned long long>(st.backoffCells),
                static_cast<unsigned long long>(st.pendingCells));
    if (!st.poisoned.empty()) {
        std::string list;
        for (std::uint64_t cell : st.poisoned)
            list += (list.empty() ? "" : " ") + std::to_string(cell);
        std::printf("  POISONED cells (gave up after %u attempts): %s\n",
                    spec.policy.maxAttempts, list.c_str());
    }
    if (st.journalCorruptEvents > 0)
        std::printf("  corrupt results quarantined over the farm's life: "
                    "%llu\n",
                    static_cast<unsigned long long>(
                        st.journalCorruptEvents));
    std::printf("  %s\n", st.complete ? "complete"
                          : st.poisoned.empty() ? "INCOMPLETE"
                                                : "STUCK (poisoned cells)");
    return st.complete ? 0 : st.poisoned.empty() ? 1 : 4;
}

int
cmdMerge(const std::string &dir, const std::vector<std::string> &args)
{
    using namespace bh;

    std::string out_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "-o" || arg == "--out") {
            if (++i >= args.size())
                fatal("option %s needs a value", arg.c_str());
            out_path = args[i];
        } else {
            fatal("bh_farm merge: unknown option %s", arg.c_str());
        }
    }

    SystemFarmClock clock;
    Farm farm;
    std::string err;
    if (!Farm::open(dir, clock, farm, err))
        fatal("bh_farm merge: %s", err.c_str());
    const FarmSpec &spec = farm.spec();

    Json cells;
    if (!farm.collectCells(cells, err))
        fatal("bh_farm merge: %s", err.c_str());

    const BenchInfo *info = findBench(spec.experiment);
    if (!info)
        fatal("farm experiment '%s' is not in this binary's registry",
              spec.experiment.c_str());
    Runner runner(1);
    BenchContext probe;
    probeGrid(*info, spec, runner, probe);
    std::string fp = benchGridFingerprint(*info, probe);
    if (fp != spec.fingerprint)
        fatal("grid fingerprint %s does not match the farm's %s; the "
              "binary diverged from the one that ran init", fp.c_str(),
              spec.fingerprint.c_str());

    // collectCells checked coverage and every payload against its commit
    // digest; replaying the experiment's aggregation over those payloads
    // is byte-identical to a plain bh_bench run.
    BenchContext ctx;
    ctx.scale = spec.scale;
    ctx.channels = spec.channels;
    ctx.attackFilter = spec.attackFilter;
    ctx.runner = &runner;
    ctx.mode = BenchContext::CellMode::Replay;
    ctx.replayCells = &cells;
    runBench(*info, ctx);

    if (out_path.empty())
        out_path = "BENCH_" + spec.experiment + ".json";
    atomicWriteFileOrDie(out_path, ctx.result.dump(2) + "\n");
    std::printf("bh_farm: merged %llu cell(s) -> %s\n",
                static_cast<unsigned long long>(spec.cellTotal),
                out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bh::setVerbose(false);
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage(stdout);
        return 0;
    }
    if (argc < 3) {
        std::fprintf(stderr, "bh_farm %s: farm directory required\n",
                     cmd.c_str());
        usage(stderr);
        return 2;
    }
    std::string dir = argv[2];
    std::vector<std::string> args(argv + 3, argv + argc);
    if (cmd == "init")
        return cmdInit(dir, args);
    if (cmd == "work")
        return cmdWork(dir, args);
    if (cmd == "run")
        return cmdRun(dir, args, argv[0]);
    if (cmd == "status")
        return cmdStatus(dir);
    if (cmd == "merge")
        return cmdMerge(dir, args);
    std::fprintf(stderr, "bh_farm: unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
}
