/**
 * @file
 * In-memory span recorder of the traced run.
 *
 * A span is a named host-time interval with a parent span and a
 * request id shared by every span of one request. Spans sit in the
 * benchmark's own code around the calls it makes into the simulator's
 * layers; nothing is recorded inside the simulator. The layer of a
 * span is its name up to the first '.', which names a src/ module
 * ("sim.run", "pdn.window", ...) or "bench" for the benchmark itself.
 *
 * Recording is off unless setEnabled(true); a disabled Scope costs
 * one relaxed load. Spans are kept in memory and written out once
 * when the run ends.
 */
#ifndef PB_TRACE_HH
#define PB_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {
namespace trace {

struct Span
{
    std::string name;
    double start = 0.0; //!< host seconds (pb::now())
    double end = 0.0;
    int parent = -1;         //!< index of the parent span, -1 = root
    std::uint64_t request = 0; //!< shared by the spans of one request
};

void setEnabled(bool on);
bool enabled();

/** Record a finished span; returns its id (-1 when disabled). */
int record(const std::string &name, double start, double end,
           int parent, std::uint64_t request);

/** RAII span. The parent defaults to the thread's innermost open span
 *  and the request id to the parent's. */
class Scope
{
  public:
    static constexpr int kInheritParent = -2;

    explicit Scope(const std::string &name, int parent = kInheritParent,
                   std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return spanId; }

  private:
    int spanId = -1;
    int savedCurrent = -1;
};

/** Copy of every span recorded so far. */
std::vector<Span> spans();

/** Self time [s] per layer: each span's duration minus the part of it
 *  that its child spans cover, summed over the layer's spans. */
std::map<std::string, double> layerSelfSeconds(const std::vector<Span> &s);

/** Write one JSON object per span; false on I/O failure. */
bool writeJsonLines(const std::string &path, const std::vector<Span> &s);

} // namespace trace
} // namespace pb

#endif // PB_TRACE_HH
