#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request,
                     uint64_t parent)
    : tracer_(tracer), name_(name), request_(request), parent_(parent) {
  if (!tracer_->enabled_) return;
  id_ = tracer_->next_id_++;
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_ || id_ == 0) return;
  const int64_t end_ns = NowNs();
  tracer_->spans_.push_back(
      Span{name_, id_, parent_, request_, start_ns_, end_ns});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.micros());
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
