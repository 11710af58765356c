#include "space/parameter.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace sparktune {

Parameter Parameter::Int(std::string name, int64_t lo, int64_t hi,
                         int64_t default_value, bool log_scale) {
  assert(lo <= hi);
  assert(default_value >= lo && default_value <= hi);
  assert(!log_scale || lo > 0);
  Parameter p;
  p.name_ = std::move(name);
  p.type_ = ParamType::kInt;
  p.lo_ = static_cast<double>(lo);
  p.hi_ = static_cast<double>(hi);
  p.log_scale_ = log_scale;
  p.default_value_ = static_cast<double>(default_value);
  p.CacheLogBounds();
  return p;
}

Parameter Parameter::Float(std::string name, double lo, double hi,
                           double default_value, bool log_scale) {
  assert(lo <= hi);
  assert(default_value >= lo && default_value <= hi);
  assert(!log_scale || lo > 0);
  Parameter p;
  p.name_ = std::move(name);
  p.type_ = ParamType::kFloat;
  p.lo_ = lo;
  p.hi_ = hi;
  p.log_scale_ = log_scale;
  p.default_value_ = default_value;
  p.CacheLogBounds();
  return p;
}

Parameter Parameter::Categorical(std::string name,
                                 std::vector<std::string> categories,
                                 int default_index) {
  assert(!categories.empty());
  assert(default_index >= 0 &&
         default_index < static_cast<int>(categories.size()));
  Parameter p;
  p.name_ = std::move(name);
  p.type_ = ParamType::kCategorical;
  p.categories_ = std::move(categories);
  p.lo_ = 0.0;
  p.hi_ = static_cast<double>(p.categories_.size() - 1);
  p.default_value_ = default_index;
  return p;
}

Parameter Parameter::Bool(std::string name, bool default_value) {
  Parameter p;
  p.name_ = std::move(name);
  p.type_ = ParamType::kBool;
  p.lo_ = 0.0;
  p.hi_ = 1.0;
  p.default_value_ = default_value ? 1.0 : 0.0;
  return p;
}

void Parameter::CacheLogBounds() {
  if (!log_scale_) return;
  log_lo_ = std::log(lo_);
  log_hi_ = std::log(hi_);
}

double Parameter::ToUnit(double value) const {
  switch (type_) {
    case ParamType::kInt:
    case ParamType::kFloat: {
      if (hi_ == lo_) return 0.5;
      if (log_scale_) {
        double lv = std::log(std::max(value, lo_));
        return std::clamp((lv - log_lo_) / (log_hi_ - log_lo_), 0.0, 1.0);
      }
      return std::clamp((value - lo_) / (hi_ - lo_), 0.0, 1.0);
    }
    case ParamType::kCategorical: {
      double k = static_cast<double>(categories_.size());
      return std::clamp((value + 0.5) / k, 0.0, 1.0);
    }
    case ParamType::kBool:
      return value >= 0.5 ? 0.75 : 0.25;
  }
  return 0.0;
}

double Parameter::FromUnit(double unit) const {
  unit = std::clamp(unit, 0.0, 1.0);
  switch (type_) {
    case ParamType::kInt: {
      double v;
      if (log_scale_) {
        v = std::exp(log_lo_ + unit * (log_hi_ - log_lo_));
      } else {
        v = lo_ + unit * (hi_ - lo_);
      }
      return Legalize(v);
    }
    case ParamType::kFloat: {
      if (log_scale_) {
        return std::exp(log_lo_ + unit * (log_hi_ - log_lo_));
      }
      return lo_ + unit * (hi_ - lo_);
    }
    case ParamType::kCategorical: {
      double k = static_cast<double>(categories_.size());
      int idx = static_cast<int>(std::floor(unit * k));
      idx = std::clamp(idx, 0, static_cast<int>(categories_.size()) - 1);
      return static_cast<double>(idx);
    }
    case ParamType::kBool:
      return unit >= 0.5 ? 1.0 : 0.0;
  }
  return 0.0;
}

double Parameter::Legalize(double value) const {
  switch (type_) {
    case ParamType::kInt:
      return std::clamp(std::round(value), lo_, hi_);
    case ParamType::kFloat:
      return std::clamp(value, lo_, hi_);
    case ParamType::kCategorical:
      return std::clamp(std::round(value), 0.0,
                        static_cast<double>(categories_.size() - 1));
    case ParamType::kBool:
      return value >= 0.5 ? 1.0 : 0.0;
  }
  return value;
}

std::string Parameter::FormatValue(double value) const {
  switch (type_) {
    case ParamType::kInt:
      return StrFormat("%lld", static_cast<long long>(std::llround(value)));
    case ParamType::kFloat:
      return PrettyDouble(value);
    case ParamType::kCategorical: {
      int idx = std::clamp(static_cast<int>(std::llround(value)), 0,
                           static_cast<int>(categories_.size()) - 1);
      return categories_[idx];
    }
    case ParamType::kBool:
      return value >= 0.5 ? "true" : "false";
  }
  return "";
}

}  // namespace sparktune
