#include "spans.hpp"

namespace perfbench {

namespace json = gpclust::obs::json;

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, std::string_view layer,
                      std::string_view name)
    : log_(log), start_(log.now()) {
  if (!log_.enabled_) return;
  Span span;
  span.layer = layer;
  span.name = name;
  span.start = start_;
  span.attributed_end = start_;
  span.parent = log_.open_.empty() ? -1 : log_.open_.back();
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(std::move(span));
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].end = log_.now();
  log_.open_.pop_back();
}

void SpanLog::attribute(std::string_view layer, std::string_view name,
                        double seconds) {
  if (!enabled_ || open_.empty()) return;
  Span& parent = spans_[static_cast<std::size_t>(open_.back())];
  Span span;
  span.layer = layer;
  span.name = name;
  span.start = parent.attributed_end;
  span.end = parent.attributed_end + seconds;
  span.parent = open_.back();
  parent.attributed_end = span.end;
  spans_.push_back(std::move(span));
}

json::Value SpanLog::to_json() const {
  json::Array out;
  out.reserve(spans_.size());
  for (const Span& s : spans_) {
    out.push_back(json::object({
        {"layer", json::string(s.layer)},
        {"name", json::string(s.name)},
        {"start", json::number(s.start)},
        {"end", json::number(s.end)},
        {"parent", json::number(s.parent)},
    }));
  }
  return json::array(std::move(out));
}

}  // namespace perfbench
