#include "temporal/time_function.h"

#include <algorithm>
#include <sstream>

namespace most {

Result<TimeFunction> TimeFunction::Piecewise(std::vector<Piece> pieces) {
  if (pieces.empty()) {
    return Status::InvalidArgument("time function needs at least one piece");
  }
  if (pieces.front().start != 0) {
    return Status::InvalidArgument("first piece must start at offset 0");
  }
  for (size_t i = 1; i < pieces.size(); ++i) {
    if (pieces[i].start <= pieces[i - 1].start) {
      return Status::InvalidArgument("piece starts must strictly increase");
    }
  }
  TimeFunction f;
  if (pieces.size() == 1) {
    f.linear_ = pieces.front();
  } else {
    f.route_ = std::move(pieces);
  }
  return f;
}

double TimeFunction::ValueAtPieceStart(size_t i) const {
  const std::span<const Piece> all = pieces();
  double acc = 0.0;
  for (size_t k = 0; k <= i && k < all.size(); ++k) {
    if (all[k].has_reset) acc = all[k].reset_value;
    if (k == i) break;
    if (k + 1 < all.size()) {
      acc += all[k].slope *
             static_cast<double>(all[k + 1].start - all[k].start);
    }
  }
  return acc;
}

double TimeFunction::Eval(double t) const {
  const std::span<const Piece> all = pieces();
  if (t <= 0.0) {
    double base = all.front().has_reset ? all.front().reset_value : 0.0;
    return base + all.front().slope * t;  // Backward extrapolation.
  }
  double acc = 0.0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].has_reset) acc = all[i].reset_value;
    double piece_start = static_cast<double>(all[i].start);
    bool last = (i + 1 == all.size());
    double piece_end =
        last ? t : static_cast<double>(all[i + 1].start);
    // A piece owns [start, next start): at a piece's start tick its own
    // reset applies, not the previous piece's end value.
    if (t < piece_end || last) {
      acc += all[i].slope * (t - piece_start);
      return acc;
    }
    acc += all[i].slope * (piece_end - piece_start);
  }
  return acc;
}

double TimeFunction::SlopeAt(double t) const {
  const std::span<const Piece> all = pieces();
  if (t < 0.0) return all.front().slope;
  double slope = all.front().slope;
  for (const Piece& p : all) {
    if (static_cast<double>(p.start) <= t) {
      slope = p.slope;
    } else {
      break;
    }
  }
  return slope;
}

bool TimeFunction::operator==(const TimeFunction& o) const {
  return std::ranges::equal(pieces(), o.pieces(), [](const Piece& a,
                                                     const Piece& b) {
    return a.start == b.start && a.slope == b.slope &&
           a.has_reset == b.has_reset &&
           (!a.has_reset || a.reset_value == b.reset_value);
  });
}

std::string TimeFunction::ToString() const {
  const std::span<const Piece> all = pieces();
  std::ostringstream os;
  if (IsLinear()) {
    os << all[0].slope << "*t";
    return os.str();
  }
  os << "piecewise[";
  for (size_t i = 0; i < all.size(); ++i) {
    if (i) os << "; ";
    os << "t>=" << all[i].start << ": slope " << all[i].slope;
    if (all[i].has_reset) os << " reset " << all[i].reset_value;
  }
  os << "]";
  return os.str();
}

}  // namespace most
