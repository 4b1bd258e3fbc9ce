#include "common/clock.h"

#include <cassert>
#include <chrono>

namespace fungusdb {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FormatDuration(Duration d) {
  if (d < 0) {
    // Built via += rather than `"-" + ...` to dodge a GCC 12 -Wrestrict
    // false positive on the inlined string insert (GCC PR 105651).
    std::string negated = "-";
    negated += FormatDuration(-d);
    return negated;
  }
  if (d == 0) return "0us";
  std::string out;
  struct Unit {
    Duration size;
    const char* name;
  };
  constexpr Unit kUnits[] = {{kDay, "d"},           {kHour, "h"},
                             {kMinute, "m"},        {kSecond, "s"},
                             {kMillisecond, "ms"},  {kMicrosecond, "us"}};
  int parts = 0;
  for (const Unit& u : kUnits) {
    if (d >= u.size && parts < 2) {
      out += std::to_string(d / u.size);
      out += u.name;
      d %= u.size;
      ++parts;
    }
  }
  return out;
}

Result<Duration> ParseDuration(std::string_view text) {
  if (text.empty()) {
    return Status::ParseError("empty duration");
  }
  Duration total = 0;
  size_t i = 0;
  while (i < text.size()) {
    size_t digits_end = i;
    while (digits_end < text.size() && text[digits_end] >= '0' &&
           text[digits_end] <= '9') {
      ++digits_end;
    }
    if (digits_end == i) {
      return Status::ParseError("expected a number in duration '" +
                                std::string(text) + "'");
    }
    Duration amount = 0;
    for (size_t d = i; d < digits_end; ++d) {
      amount = amount * 10 + (text[d] - '0');
    }
    i = digits_end;
    size_t unit_end = i;
    while (unit_end < text.size() &&
           (text[unit_end] < '0' || text[unit_end] > '9')) {
      ++unit_end;
    }
    const std::string_view unit = text.substr(i, unit_end - i);
    i = unit_end;
    if (unit == "d") {
      total += amount * kDay;
    } else if (unit == "h") {
      total += amount * kHour;
    } else if (unit == "m") {
      total += amount * kMinute;
    } else if (unit == "s") {
      total += amount * kSecond;
    } else if (unit == "ms") {
      total += amount * kMillisecond;
    } else if (unit == "us") {
      total += amount * kMicrosecond;
    } else {
      return Status::ParseError("unknown duration unit '" +
                                std::string(unit) + "'");
    }
  }
  return total;
}

void VirtualClock::Advance(Duration d) {
  assert(d >= 0);
  now_ += d;
}

void VirtualClock::SetTime(Timestamp t) {
  assert(t >= now_);
  now_ = t;
}

SystemClock::SystemClock() {
  epoch_ = std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count();
}

Timestamp SystemClock::Now() const {
  Timestamp now = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return now - epoch_;
}

}  // namespace fungusdb
