#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

#include "measure.hh"

namespace pb {
namespace trace {

namespace {

std::atomic<bool> on{false};
std::mutex mu;
std::vector<Span> recorded;
thread_local int innermost = -1;

std::uint64_t
requestOf(int span)
{
    if (span < 0)
        return 0;
    std::lock_guard<std::mutex> lock(mu);
    return recorded[static_cast<std::size_t>(span)].request;
}

} // namespace

void
setEnabled(bool enable)
{
    on.store(enable, std::memory_order_relaxed);
}

bool
enabled()
{
    return on.load(std::memory_order_relaxed);
}

int
record(const std::string &name, double start, double end, int parent,
       std::uint64_t request)
{
    if (!enabled())
        return -1;
    std::lock_guard<std::mutex> lock(mu);
    recorded.push_back({name, start, end, parent, request});
    return static_cast<int>(recorded.size()) - 1;
}

Scope::Scope(const std::string &name, int parent, std::uint64_t request)
{
    if (!enabled())
        return;
    if (parent == kInheritParent)
        parent = innermost;
    if (request == 0)
        request = requestOf(parent);
    spanId = record(name, now(), -1.0, parent, request);
    savedCurrent = innermost;
    innermost = spanId;
}

Scope::~Scope()
{
    if (spanId < 0)
        return;
    const double t = now();
    {
        std::lock_guard<std::mutex> lock(mu);
        recorded[static_cast<std::size_t>(spanId)].end = t;
    }
    innermost = savedCurrent;
}

std::vector<Span>
spans()
{
    std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &s)
{
    std::vector<std::vector<std::pair<double, double>>> kids(s.size());
    for (const auto &span : s)
        if (span.parent >= 0)
            kids[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start, span.end);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const Span &span = s[i];
        if (span.end < span.start)
            continue; // still open
        // Union of the children's intervals clipped to this span;
        // children on other threads may overlap each other.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, reach = span.start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, span.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        const std::string layer = span.name.substr(0, span.name.find('.'));
        self[layer] += std::max(0.0, span.end - span.start - covered);
    }
    return self;
}

bool
writeJsonLines(const std::string &path, const std::vector<Span> &s)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (std::size_t i = 0; i < s.size(); ++i)
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %d, \"request\": %llu}\n",
                     i, s[i].name.c_str(), s[i].start, s[i].end,
                     s[i].parent,
                     static_cast<unsigned long long>(s[i].request));
    return std::fclose(f) == 0;
}

} // namespace trace
} // namespace pb
