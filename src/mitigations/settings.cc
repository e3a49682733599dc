#include "mitigations/settings.hh"

#include "mem/controller.hh"

namespace bh
{

unsigned
scheduleNeighborRefreshes(MemController &mc,
                          const MitigationSettings &settings, unsigned bank,
                          RowId row)
{
    unsigned scheduled = 0;
    for (unsigned k = 1; k <= settings.blastRadius; ++k) {
        for (int dir : {-1, 1}) {
            std::int64_t victim = static_cast<std::int64_t>(row) +
                dir * static_cast<int>(k);
            if (victim < 0 ||
                victim >= static_cast<std::int64_t>(settings.rowsPerBank))
                continue;
            mc.scheduleVictimRefresh(bank, static_cast<RowId>(victim));
            ++scheduled;
        }
    }
    return scheduled;
}

} // namespace bh
