#include "shard/worker.hh"

#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "serve/server.hh"

namespace tg {
namespace shard {

namespace {

constexpr std::uint32_t kBasicSetupMagic = 0x32424754; // "TGB2"

} // namespace

bool isWorkerInvocation(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], kWorkerFlag))
            return true;
    return false;
}

int workerMain(const SetupFactory &factory)
{
    serve::Server server(serve::ServerOptions{}, factory);
    std::string err;
    if (!server.adopt(kWorkerFd, &err)) {
        warn("shard worker: ", err);
        return 1;
    }
    server.wait();
    return 0;
}

std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg)
{
    bytes::ByteWriter w;
    w.u32(kBasicSetupMagic);
    w.u32(static_cast<std::uint32_t>(kind));
    w.i64(chip_arg);
    // Every non-Local schema field in visit order: doubles by bit
    // pattern, strings length-prefixed, the rest as 64-bit words.
    sim::visitConfig(cfg, [&](const char *, const auto &v,
                              sim::FieldRole role) {
        using T = std::decay_t<decltype(v)>;
        if (role == sim::FieldRole::Local)
            return;
        if constexpr (std::is_same_v<T, double>)
            w.f64(v);
        else if constexpr (std::is_same_v<T, std::string>)
            w.str(v);
        else
            w.u64(static_cast<std::uint64_t>(v));
    });
    return w.take();
}

bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg)
{
    bytes::ByteReader r(blob.data(), blob.size());
    if (r.u32() != kBasicSetupMagic)
        return false;
    kind = static_cast<ChipKind>(r.u32());
    chip_arg = static_cast<int>(r.i64());
    cfg = sim::SimConfig{};
    sim::visitConfig(cfg, [&](const char *, auto &v, sim::FieldRole role) {
        using T = std::decay_t<decltype(v)>;
        if (role == sim::FieldRole::Local)
            return;
        if constexpr (std::is_same_v<T, double>)
            v = r.f64();
        else if constexpr (std::is_same_v<T, std::string>)
            v = r.str();
        else
            v = static_cast<T>(r.u64());
    });
    if (!r.exhausted())
        return false;
    return kind == ChipKind::Power8 || kind == ChipKind::Mini;
}

SetupFactory basicSetupFactory()
{
    return [](const std::vector<std::uint8_t> &blob) -> WorkerSetup {
        ChipKind kind{};
        int chip_arg = 0;
        WorkerSetup setup;
        if (!decodeBasicSetup(blob, kind, chip_arg, setup.cfg))
            throw std::invalid_argument("invalid setup blob");
        if (kind == ChipKind::Mini && (chip_arg < 1 || chip_arg > 64))
            throw std::invalid_argument(
                "mini chip core count out of range");
        const std::string why = sim::configError(setup.cfg);
        if (!why.empty())
            throw std::invalid_argument("invalid config: " + why);
        switch (kind) {
        case ChipKind::Power8:
            setup.chip = floorplan::buildPower8Chip();
            break;
        case ChipKind::Mini:
            setup.chip = floorplan::buildMiniChip(chip_arg);
            break;
        }
        return setup;
    };
}

} // namespace shard
} // namespace tg
