#include "spans.hh"

#include <cstdio>
#include <functional>
#include <thread>

#include "common/json.hh"

namespace perfbench {

namespace {

thread_local std::int64_t tlsCurrent = -1;

std::uint64_t
threadId()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        100000;
}

} // namespace

SpanLog::SpanLog(bool enabled) : on(enabled), origin(Clock::now()) {}

std::int64_t
SpanLog::current()
{
    return tlsCurrent;
}

std::int64_t
SpanLog::open(const std::string &name, std::int64_t config,
              std::int64_t parent)
{
    if (!on)
        return -1;
    Rec r;
    r.name = name;
    r.parent = parent;
    r.config = config;
    r.tid = threadId();
    r.start_us = std::chrono::duration<double, std::micro>(
        Clock::now() - origin).count();
    std::lock_guard<std::mutex> lock(mtx);
    r.id = static_cast<std::int64_t>(recs.size());
    recs.push_back(std::move(r));
    return recs.back().id;
}

void
SpanLog::close(std::int64_t id)
{
    if (!on || id < 0)
        return;
    const double now = std::chrono::duration<double, std::micro>(
        Clock::now() - origin).count();
    std::lock_guard<std::mutex> lock(mtx);
    recs[static_cast<std::size_t>(id)].end_us = now;
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    using nurapid::Json;
    Json events = Json::array();
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const Rec &r : recs) {
            Json args = Json::object();
            args.set("span_id", Json(static_cast<double>(r.id)));
            args.set("parent_id", Json(static_cast<double>(r.parent)));
            args.set("config_id", Json(static_cast<double>(r.config)));
            Json e = Json::object();
            e.set("name", Json(r.name));
            e.set("cat", Json(r.name.substr(0, r.name.find(' '))));
            e.set("ph", Json(std::string("X")));
            e.set("ts", Json(r.start_us));
            e.set("dur", Json(r.end_us - r.start_us));
            e.set("pid", Json(1.0));
            e.set("tid", Json(static_cast<double>(r.tid)));
            e.set("args", args);
            events.push(e);
        }
    }
    Json doc = Json::object();
    doc.set("traceEvents", events);
    doc.set("displayTimeUnit", Json(std::string("ms")));
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = doc.dump();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
        text.size();
    return std::fclose(f) == 0 && ok;
}

Span::Span(SpanLog &l, const std::string &name, std::int64_t config,
           std::int64_t parent)
    : log(l), sid(l.open(name, config, parent)), saved_current(tlsCurrent)
{
    if (sid >= 0)
        tlsCurrent = sid;
}

Span::~Span()
{
    log.close(sid);
    if (sid >= 0)
        tlsCurrent = saved_current;
}

} // namespace perfbench
