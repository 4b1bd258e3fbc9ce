// The generator's own model of the `readings` table: seeded rows, the
// text of every statement it sends, and the answers those statements
// must return, computed independently of FungusDB.
#ifndef FUNGUSBENCH_MODEL_H_
#define FUNGUSBENCH_MODEL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "query/result_set.h"

namespace fungusbench {

inline constexpr int64_t kSensors = 1024;
inline constexpr int kSites = 64;
/// Values are multiples of 0.25 in [0, 1000): every sum of them is
/// exact in a double whatever order the engine adds them in, so sums
/// compare bit for bit.
inline constexpr int64_t kValueQuarters = 4000;

inline constexpr char kCreateTable[] =
    "\\create readings (sensor int64, value float64, site string)";

struct Row {
  int64_t sensor;
  int64_t value_q;  // value * 4
  int site;
};

Row RandomRow(Rng& rng);
/// A row drawn with a fixed sensor (mixed_consume spreads its writes
/// over fewer sensors than kSensors).
Row RandomRowForSensor(Rng& rng, int64_t sensor);
std::string InsertStatement(const Row& row);

/// One read statement of a read shape: the rows with value_q in
/// [value_lo, value_hi) and sensor in [sensor_lo, sensor_hi), counted,
/// summed, grouped or projected.
struct ReadQuery {
  Shape shape = Shape::kCount;
  int64_t value_lo = 0, value_hi = kValueQuarters;
  int64_t sensor_lo = 0, sensor_hi = kSensors;
  std::string sql;
};

/// A seeded instance of `shape` over a table whose sensors lie in
/// [0, sensors). Only the range positions are drawn; their widths are
/// fixed per shape, so every instance of a shape does the same amount
/// of work whatever the seed: count 25% of the rows, agg 37.5%, group
/// 50%, project 1%.
ReadQuery RandomRead(Shape shape, int64_t sensors, Rng& rng);

struct Answer {
  int64_t count = 0;
  double sum = 0;
  std::map<int, std::pair<int64_t, double>> groups;  // site -> (n, sum)
  std::vector<std::pair<int64_t, int64_t>> rows;     // (sensor, value_q)
};

inline bool Matches(const ReadQuery& q, const Row& r) {
  return r.value_q >= q.value_lo && r.value_q < q.value_hi &&
         r.sensor >= q.sensor_lo && r.sensor < q.sensor_hi;
}

template <typename Rows>
Answer Evaluate(const ReadQuery& q, const Rows& rows) {
  Answer out;
  for (const Row& r : rows) {
    if (!Matches(q, r)) continue;
    const double v = static_cast<double>(r.value_q) / 4.0;
    ++out.count;
    out.sum += v;
    if (q.shape == Shape::kGroup) {
      auto& g = out.groups[r.site];
      ++g.first;
      g.second += v;
    } else if (q.shape == Shape::kProject) {
      out.rows.emplace_back(r.sensor, r.value_q);
    }
  }
  return out;
}

/// Compares an engine answer with the model's. On mismatch returns
/// false and says why in `why`.
bool CheckAnswer(const ReadQuery& q, const fungusdb::ResultSet& rs,
                 Answer expected, std::string* why);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_MODEL_H_
