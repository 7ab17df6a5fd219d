#include "farm/aggregate.hh"

#include <cstdio>
#include <sstream>

#include "gpu/run_stats_io.hh"
#include "memsys/memsys.hh"

namespace trt
{

namespace
{

std::string
fpHex(uint64_t fp)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)fp);
    return buf;
}

std::string
fixed(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

/** JSON string escaping for error messages and labels. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // anonymous namespace

std::string
jobCsvHeader()
{
    return "index,scene,config,res,scale,bvh_width,sampled,"
           "fingerprint,stats_fingerprint,cycles,rays,"
           "simt_efficiency,bvh_l1_miss_rate,bvh_dram_accesses,"
           "bvh_l2_accesses";
}

std::string
jobCsvRow(size_t index, const JobRecord &r)
{
    const RunStats &st = r.stats;
    const MemClassStats &bvh = st.memClass(MemClass::BvhNode);
    std::ostringstream ss;
    ss << index << "," << r.spec.scene << "," << r.spec.config << ","
       << r.spec.resolution << "," << fixed(r.spec.scale, 4) << ","
       << r.spec.bvhWidth << "," << (r.spec.sample.enabled ? 1 : 0)
       << "," << fpHex(r.fingerprint) << ","
       << fpHex(RunStatsIo::fingerprint(st)) << "," << st.cycles << ","
       << st.raysTraced << "," << fixed(st.simtEfficiency(), 6) << ","
       << fixed(st.bvhL1MissRate(), 6) << "," << bvh.dramAccesses << ","
       << bvh.l2Accesses;
    return ss.str();
}

std::string
jobJsonLine(size_t index, const JobRecord &r)
{
    std::ostringstream ss;
    ss << "{\"index\":" << index << ",\"label\":\""
       << jsonEscape(r.spec.label()) << "\",\"fingerprint\":\""
       << fpHex(r.fingerprint) << "\"";
    if (r.failed) {
        ss << ",\"status\":\"failed\",\"error\":\""
           << jsonEscape(r.error) << "\"";
    } else {
        ss << ",\"status\":\"done\",\"cache_hit\":"
           << (r.cacheHit ? "true" : "false") << ",\"stats_fingerprint\":\""
           << fpHex(RunStatsIo::fingerprint(r.stats))
           << "\",\"cycles\":" << r.stats.cycles
           << ",\"rays\":" << r.stats.raysTraced;
    }
    ss << ",\"attempts\":" << r.attempts << ",\"wall_ms\":" << r.wallMs
       << "}";
    return ss.str();
}

} // namespace trt
