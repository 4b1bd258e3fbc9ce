#include "model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fungusbench {
namespace {

std::string SiteName(int site) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "s%02d", site);
  return buf;
}

int SiteIndex(const std::string& name) {
  if (name.size() != 3 || name[0] != 's') return -1;
  return (name[1] - '0') * 10 + (name[2] - '0');
}

/// value_q / 4 as an exact decimal literal, e.g. 1237 -> "309.25".
std::string ValueText(int64_t value_q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(value_q / 4),
                static_cast<long long>((value_q % 4) * 25));
  return buf;
}

bool Numeric(const fungusdb::Value& v, double* out) {
  if (v.is_null()) return false;
  if (v.type() == fungusdb::DataType::kInt64) {
    *out = static_cast<double>(v.AsInt64());
    return true;
  }
  if (v.type() == fungusdb::DataType::kFloat64) {
    *out = v.AsFloat64();
    return true;
  }
  return false;
}

bool Close(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

bool Fail(std::string* why, const std::string& text) {
  *why = text;
  return false;
}

}  // namespace

Row RandomRow(Rng& rng) {
  return RandomRowForSensor(rng, rng.Uniform(kSensors));
}

Row RandomRowForSensor(Rng& rng, int64_t sensor) {
  Row r;
  r.sensor = sensor;
  r.value_q = rng.Uniform(kValueQuarters);
  r.site = static_cast<int>(rng.Uniform(kSites));
  return r;
}

std::string InsertStatement(const Row& row) {
  return "\\insert readings " + std::to_string(row.sensor) + "," +
         ValueText(row.value_q) + "," + SiteName(row.site);
}

ReadQuery RandomRead(Shape shape, int64_t sensors, Rng& rng) {
  ReadQuery q;
  q.shape = shape;
  q.sensor_hi = sensors;
  auto value_range = [&q, &rng](int64_t width) {
    q.value_lo = rng.Uniform(kValueQuarters - width + 1);
    q.value_hi = q.value_lo + width;
  };
  auto sensor_range = [&q, &rng, sensors](int64_t width) {
    q.sensor_lo = rng.Uniform(sensors - width + 1);
    q.sensor_hi = q.sensor_lo + width;
  };
  std::string what;
  switch (shape) {
    case Shape::kCount:
      value_range(kValueQuarters / 2);
      sensor_range(sensors / 2);
      what = "count(*) AS n";
      break;
    case Shape::kAgg:
      sensor_range(sensors * 3 / 8);
      what = "sum(value) AS s, avg(value) AS a";
      break;
    case Shape::kGroup:
      value_range(kValueQuarters / 2);
      what = "site, count(*) AS n, sum(value) AS s";
      break;
    case Shape::kProject:
      value_range(kValueQuarters / 100);
      what = "sensor, value";
      break;
    default:
      return q;
  }
  std::vector<std::string> where;
  if (q.value_lo > 0 || q.value_hi < kValueQuarters) {
    where.push_back("value >= " + ValueText(q.value_lo));
    where.push_back("value < " + ValueText(q.value_hi));
  }
  if (q.sensor_lo > 0 || q.sensor_hi < sensors) {
    where.push_back("sensor >= " + std::to_string(q.sensor_lo));
    where.push_back("sensor < " + std::to_string(q.sensor_hi));
  }
  q.sql = "SELECT " + what + " FROM readings";
  for (size_t i = 0; i < where.size(); ++i) {
    q.sql += (i == 0 ? " WHERE " : " AND ") + where[i];
  }
  if (shape == Shape::kGroup) q.sql += " GROUP BY site";
  return q;
}

bool CheckAnswer(const ReadQuery& q, const fungusdb::ResultSet& rs,
                 Answer expected, std::string* why) {
  const std::string where = std::string(ShapeName(q.shape)) + " [" +
                            q.sql + "]: ";
  double x = 0;
  switch (q.shape) {
    case Shape::kCount:
      if (rs.num_rows() != 1 || !Numeric(rs.at(0, 0), &x) ||
          x != static_cast<double>(expected.count)) {
        return Fail(why, where + "count differs from the model's " +
                             std::to_string(expected.count));
      }
      return true;
    case Shape::kAgg: {
      double avg = 0;
      if (rs.num_rows() != 1 || rs.num_columns() != 2 ||
          !Numeric(rs.at(0, 0), &x) || !Numeric(rs.at(0, 1), &avg) ||
          x != expected.sum ||
          !Close(avg, expected.sum / static_cast<double>(expected.count))) {
        return Fail(why, where + "sum/avg differ from the model's");
      }
      return true;
    }
    case Shape::kGroup: {
      if (rs.num_rows() != expected.groups.size()) {
        return Fail(why, where + "group count differs from the model's");
      }
      for (size_t i = 0; i < rs.num_rows(); ++i) {
        double n = 0, s = 0;
        if (rs.at(i, 0).is_null() ||
            rs.at(i, 0).type() != fungusdb::DataType::kString ||
            !Numeric(rs.at(i, 1), &n) || !Numeric(rs.at(i, 2), &s)) {
          return Fail(why, where + "malformed group row");
        }
        auto it = expected.groups.find(SiteIndex(rs.at(i, 0).AsString()));
        if (it == expected.groups.end() ||
            n != static_cast<double>(it->second.first) ||
            s != it->second.second) {
          return Fail(why, where + "group " + rs.at(i, 0).AsString() +
                               " differs from the model's");
        }
      }
      return true;
    }
    case Shape::kProject: {
      std::vector<std::pair<int64_t, int64_t>> got;
      got.reserve(rs.num_rows());
      for (size_t i = 0; i < rs.num_rows(); ++i) {
        double sensor = 0, value = 0;
        if (!Numeric(rs.at(i, 0), &sensor) || !Numeric(rs.at(i, 1), &value)) {
          return Fail(why, where + "malformed projected row");
        }
        got.emplace_back(static_cast<int64_t>(sensor),
                         std::llround(value * 4.0));
      }
      std::sort(got.begin(), got.end());
      std::sort(expected.rows.begin(), expected.rows.end());
      if (got != expected.rows) {
        return Fail(why, where + "projected rows differ from the model's (" +
                             std::to_string(got.size()) + " vs " +
                             std::to_string(expected.rows.size()) + ")");
      }
      return true;
    }
    default:
      return Fail(why, where + "not a read shape");
  }
}

}  // namespace fungusbench
