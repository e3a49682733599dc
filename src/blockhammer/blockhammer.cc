#include "blockhammer/blockhammer.hh"

namespace bh
{

BlockHammer::BlockHammer(const BlockHammerConfig &config)
    : cfg(config), blocker(config), throttler(config), stamps(config.banks)
{
}

bool
BlockHammer::isActSafe(unsigned bank, RowId row, ThreadId thread, Cycle now)
{
    // Observe-only mode never interferes (Section 3.2.1).
    if (cfg.observeOnly || blocker.isSafe(bank, row, now))
        return true;
    ++numUnsafe;
    // Trace only the first refusal of a delay episode: the controller
    // re-queries every tick, and the episode (not the per-tick verdict)
    // is the interesting observable.
    bool first = firstBlocked.try_emplace(key(bank, row), now).second;
    if (first && TraceSink::on()) {
        TraceSink::instant(
            "mitig", "blacklist_block", tmeta, now,
            {{"bank", static_cast<std::int64_t>(bank)},
             {"row", static_cast<std::int64_t>(row)},
             {"thread", static_cast<std::int64_t>(thread)}});
    }
    return false;
}

void
BlockHammer::onActivate(unsigned bank, RowId row, ThreadId thread, Cycle now)
{
    ++numActs;
    std::uint64_t k = key(bank, row);

    // An activation of an already-blacklisted row feeds the thread's RHLI.
    bool blacklisted = blocker.isBlacklisted(bank, row);
    if (blacklisted) {
        ++numBlacklistedActs;
        throttler.onBlacklistedActivate(thread, bank);
        if (TraceSink::on()) {
            TraceSink::instant(
                "mitig", "blacklisted_act", tmeta, now,
                {{"bank", static_cast<std::int64_t>(bank)},
                 {"row", static_cast<std::int64_t>(row)},
                 {"thread", static_cast<std::int64_t>(thread)},
                 {"quota",
                  static_cast<std::int64_t>(quota(thread, bank))}});
        }
    }

    // Delay accounting: if this row was previously refused, the elapsed
    // time is the penalty RowBlocker imposed on this activation.
    if (auto it = firstBlocked.find(k); it != firstBlocked.end()) {
        Cycle delay = now - it->second;
        firstBlocked.erase(it);
        ++numDelayedActs;
        delayHist.add(delay);
        // Ground truth: a delayed activation whose exact two-epoch count
        // never reached N_BL was delayed only because of Bloom-filter
        // aliasing — a false positive.
        if (shadow.count(k) < cfg.nBL) {
            ++numFalsePos;
            fpHist.add(delay);
        }
    }

    blocker.onActivate(bank, row, now);
    shadow.insert(k);
    ++stamps[bank];
}

void
BlockHammer::tick(Cycle now)
{
    if (blocker.clockTick(now)) {
        throttler.onEpochBoundary();
        shadow.onEpochBoundary();
        for (auto &stamp : stamps)
            ++stamp;
    }
}

Cycle
BlockHammer::nextHousekeepingAt(Cycle) const
{
    return blocker.nextBoundaryAt();
}

const std::uint64_t *
BlockHammer::verdictStamps() const
{
    // Observe-only queries have no effect, so there is nothing to cache.
    return cfg.observeOnly ? nullptr : stamps.data();
}

Cycle
BlockHammer::refusalLapsesAt(unsigned bank, RowId row, Cycle) const
{
    return blocker.refusalLapsesAt(bank, row);
}

bool
BlockHammer::knownSafe(unsigned bank, RowId row, Cycle now) const
{
    // A safe RowBlocker verdict counts nothing and refuses nothing.
    return blocker.knownSafe(bank, row, now);
}

int
BlockHammer::quota(ThreadId thread, unsigned bank) const
{
    if (cfg.observeOnly)
        return -1;
    return throttler.quota(thread, bank);
}

void
BlockHammer::syncStats()
{
    stats.inc("bh.acts", numActs);
    stats.inc("bh.blacklisted_acts", numBlacklistedActs);
    stats.inc("bh.delayed_acts", numDelayedActs);
    stats.inc("bh.false_positive_acts", numFalsePos);
    stats.inc("bh.unsafe_verdicts", numUnsafe);
    stats.set("bh.blacklist_rate",
              numActs ? static_cast<double>(numBlacklistedActs) /
                      static_cast<double>(numActs)
                      : 0.0);
    // Active-CBF occupancy averaged over banks: the saturation measure
    // behind Section 8.4's false-positive analysis.
    double occ = 0.0;
    for (unsigned b = 0; b < cfg.banks; ++b)
        occ += blocker.bankFilter(b).activeFilter().occupancy();
    stats.set("bh.cbf_occupancy",
              cfg.banks ? occ / static_cast<double>(cfg.banks) : 0.0);
    Histogram &delays = stats.hist("bh.delay_cycles");
    if (delays.count() == 0) {
        delays = delayHist;
        stats.hist("bh.fp_delay_cycles") = fpHist;
    }
}

} // namespace bh
