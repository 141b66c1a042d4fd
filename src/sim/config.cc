#include "sim/config.hh"

#include <cmath>
#include <type_traits>
#include <utility>

namespace tg {
namespace sim {

std::string
configError(const SimConfig &cfg)
{
    const char *infinite = nullptr;
    visitConfig(cfg, [&](const char *name, const auto &v, FieldRole) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            if (!infinite && !std::isfinite(v))
                infinite = name;
    });
    if (infinite)
        return std::string(infinite) + " is not finite";

    const thermal::ThermalParams &t = cfg.thermalParams;
    const double share = cfg.powerParams.staticShareAt80C;
    const sensors::PredictorParams &pr = cfg.predictorParams;
    const sensors::HealthParams &h = cfg.healthParams;
    const std::pair<bool, const char *> checks[] = {
        {cfg.regulator == RegulatorChoice::Fivr ||
             cfg.regulator == RegulatorChoice::Ldo,
         "unknown regulator choice"},
        {cfg.noiseSamples >= 0, "noiseSamples must not be negative"},
        {cfg.noiseWarmupCycles >= 0 &&
             cfg.noiseWarmupCycles < cfg.noiseCyclesTotal,
         "noiseWarmupCycles must lie in [0, noiseCyclesTotal)"},
        {t.gridW >= 2 && t.gridH >= 2, "thermal die grid below 2 x 2"},
        {t.spreaderN >= 1, "thermal spreader needs a cell"},
        {t.step > 0.0, "thermal step must be positive"},
        {share > 0.0 && share < 1.0, "staticShareAt80C outside (0, 1)"},
        {cfg.pdnParams.nodePitch > 0.0, "PDN node pitch must be positive"},
        {cfg.sensorParams.delay >= 0.0, "negative sensor delay"},
        {cfg.sensorParams.quantization > 0.0,
         "sensor quantisation must be positive"},
        {pr.sensitivity >= 0.0 && pr.sensitivity <= 1.0 &&
             pr.falseAlarmRate >= 0.0 && pr.falseAlarmRate <= 1.0,
         "predictor rates must lie in [0, 1]"},
        {h.maxPlausible > h.minPlausible, "empty plausible range"},
        {h.freezeReads >= 1 && h.readmitReads >= 1,
         "health read counts must be positive"},
    };
    for (const auto &[ok, why] : checks)
        if (!ok)
            return why;
    return {};
}

} // namespace sim
} // namespace tg
