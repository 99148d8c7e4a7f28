#include "temporal/time_function.h"

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
  f.pieces_ = std::move(pieces);
  return f;
}

double TimeFunction::ValueAtPieceStart(size_t i) const {
  double acc = 0.0;
  for (size_t k = 0; k <= i && k < pieces_.size(); ++k) {
    if (pieces_[k].has_reset) acc = pieces_[k].reset_value;
    if (k == i) break;
    if (k + 1 < pieces_.size()) {
      acc += pieces_[k].slope *
             static_cast<double>(pieces_[k + 1].start - pieces_[k].start);
    }
  }
  return acc;
}

double TimeFunction::Eval(double t) const {
  if (t <= 0.0) {
    double base = pieces_.front().has_reset ? pieces_.front().reset_value : 0.0;
    return base + pieces_.front().slope * t;  // Backward extrapolation.
  }
  double acc = 0.0;
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (pieces_[i].has_reset) acc = pieces_[i].reset_value;
    double piece_start = static_cast<double>(pieces_[i].start);
    bool last = (i + 1 == pieces_.size());
    double piece_end =
        last ? t : static_cast<double>(pieces_[i + 1].start);
    // A piece owns [start, next start): at a piece's start tick its own
    // reset applies, not the previous piece's end value.
    if (t < piece_end || last) {
      acc += pieces_[i].slope * (t - piece_start);
      return acc;
    }
    acc += pieces_[i].slope * (piece_end - piece_start);
  }
  return acc;
}

double TimeFunction::SlopeAt(double t) const {
  if (t < 0.0) return pieces_.front().slope;
  double slope = pieces_.front().slope;
  for (const Piece& p : pieces_) {
    if (static_cast<double>(p.start) <= t) {
      slope = p.slope;
    } else {
      break;
    }
  }
  return slope;
}

bool TimeFunction::operator==(const TimeFunction& o) const {
  if (pieces_.size() != o.pieces_.size()) return false;
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (pieces_[i].start != o.pieces_[i].start ||
        pieces_[i].slope != o.pieces_[i].slope ||
        pieces_[i].has_reset != o.pieces_[i].has_reset ||
        (pieces_[i].has_reset &&
         pieces_[i].reset_value != o.pieces_[i].reset_value)) {
      return false;
    }
  }
  return true;
}

std::string TimeFunction::ToString() const {
  std::ostringstream os;
  if (IsLinear()) {
    os << pieces_[0].slope << "*t";
    return os.str();
  }
  os << "piecewise[";
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (i) os << "; ";
    os << "t>=" << pieces_[i].start << ": slope " << pieces_[i].slope;
    if (pieces_[i].has_reset) os << " reset " << pieces_[i].reset_value;
  }
  os << "]";
  return os.str();
}

}  // namespace most
