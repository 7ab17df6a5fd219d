#include "farm/manifest.hh"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "farm/json.hh"
#include "util/env.hh"

namespace trt
{

namespace
{

/** Apply one knob (JobSpec serialization key) from a JSON scalar
 *  through the knob table, so the manifest and the wire format accept
 *  exactly the same keys and values. */
void
applyKnob(JobSpec &spec, const std::string &key, const JsonValue &v,
          const std::string &what)
{
    if (!v.isScalar())
        throw EnvError(what + ": expected a scalar value");
    spec.set(key, v.text, what);
}

void
applyKnobObject(JobSpec &spec, const JsonValue &obj,
                const std::string &what)
{
    for (const auto &[key, v] : obj.members)
        applyKnob(spec, key, v, what);
}

std::vector<std::string>
stringArray(const JsonValue &v, const std::string &what)
{
    if (!v.isArray())
        throw EnvError(what + ": expected an array of strings");
    std::vector<std::string> out;
    for (const JsonValue &e : v.items) {
        if (!e.isString())
            throw EnvError(what + ": expected an array of strings");
        out.push_back(e.text);
    }
    return out;
}

} // anonymous namespace

Manifest
Manifest::parse(const std::string &text, const std::string &origin)
{
    JsonValue doc = JsonValue::parse(text, origin);
    if (!doc.isObject())
        throw EnvError(origin + ": manifest must be a JSON object");

    Manifest m;
    JobSpec defaults;
    std::vector<std::string> scenes;
    std::vector<std::string> configs{"baseline"};
    const JsonValue *grid = nullptr;
    const JsonValue *explicit_jobs = nullptr;

    for (const auto &[key, v] : doc.members) {
        std::string what = origin + "." + key;
        if (key == "name") {
            if (!v.isString() || v.text.empty())
                throw EnvError(what + ": expected a non-empty string");
            m.name = v.text;
        } else if (key == "defaults") {
            if (!v.isObject())
                throw EnvError(what + ": expected an object");
            applyKnobObject(defaults, v, what);
        } else if (key == "scenes") {
            scenes = stringArray(v, what);
        } else if (key == "configs") {
            configs = stringArray(v, what);
            if (configs.empty())
                throw EnvError(what + ": expected at least one config");
        } else if (key == "grid") {
            if (!v.isObject())
                throw EnvError(what + ": expected an object of arrays");
            grid = &v;
        } else if (key == "jobs") {
            if (!v.isArray())
                throw EnvError(what + ": expected an array of objects");
            explicit_jobs = &v;
        } else {
            throw EnvError(origin + ": unknown key \"" + key + "\"");
        }
    }
    if (scenes.empty() && !explicit_jobs)
        throw EnvError(origin +
                       ": manifest needs \"scenes\" or \"jobs\"");

    // Cross-product expansion: scenes × configs × grid axes, axes in
    // declaration order with the last axis fastest-varying.
    std::vector<JobSpec> expanded;
    if (!scenes.empty()) {
        std::vector<JobSpec> combos{defaults};
        if (grid) {
            for (const auto &[axis, values] : grid->members) {
                std::string what = origin + ".grid." + axis;
                if (!values.isArray() || values.items.empty())
                    throw EnvError(what +
                                   ": expected a non-empty array");
                std::vector<JobSpec> nxt;
                nxt.reserve(combos.size() * values.items.size());
                for (const JobSpec &base : combos)
                    for (const JsonValue &v : values.items) {
                        JobSpec s = base;
                        applyKnob(s, axis, v, origin + ".grid");
                        nxt.push_back(std::move(s));
                    }
                combos = std::move(nxt);
            }
        }
        for (const std::string &scene : scenes)
            for (const std::string &config : configs)
                for (const JobSpec &base : combos) {
                    JobSpec s = base;
                    s.scene = scene;
                    s.config = config;
                    expanded.push_back(std::move(s));
                }
    }
    if (explicit_jobs) {
        size_t idx = 0;
        for (const JsonValue &jv : explicit_jobs->items) {
            std::string what =
                origin + ".jobs[" + std::to_string(idx++) + "]";
            if (!jv.isObject())
                throw EnvError(what + ": expected an object");
            JobSpec s = defaults;
            applyKnobObject(s, jv, what);
            if (s.scene.empty())
                throw EnvError(what + ": missing \"scene\"");
            expanded.push_back(std::move(s));
        }
    }

    // Materialize every job once up front — an invalid config name or
    // BVH width anywhere in the matrix fails the whole manifest before
    // any work starts — and drop exact duplicates (same fingerprint =
    // same simulation) keep-first.
    std::unordered_set<uint64_t> seen;
    for (JobSpec &s : expanded) {
        uint64_t fp = s.fingerprint();
        if (seen.insert(fp).second)
            m.jobs.push_back(std::move(s));
        else
            m.duplicates++;
    }
    return m;
}

Manifest
Manifest::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw EnvError("manifest \"" + path + "\": cannot open");
    std::ostringstream ss;
    ss << is.rdbuf();
    return parse(ss.str(), path);
}

} // namespace trt
