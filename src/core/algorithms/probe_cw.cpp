#include "core/algorithms/probe_cw.h"

#include <algorithm>
#include <array>
#include <vector>

#include "core/engine/batch_kernel.h"
#include "util/require.h"

namespace qps {

Witness ProbeCW::run_with(TrialWorkspace& /*workspace*/,
                          ProbeSession& session, Rng& /*rng*/) const {
  const CrumblingWall& wall = *wall_;
  QPS_REQUIRE(wall.row_width(0) == 1, "Probe_CW expects a width-1 top row");
  const std::size_t n = wall.universe_size();

  // Probe the unique element of the first row; it seeds the witness W and
  // the mode (W's color).
  ElementSet witness(n);
  const Element top = wall.row_begin(0);
  Color mode = session.probe(top);
  witness.insert(top);

  for (std::size_t row = 1; row < wall.row_count(); ++row) {
    bool found = false;
    for (Element e = wall.row_begin(row); e < wall.row_end(row); ++e) {
      if (session.probe(e) == mode) {
        witness.insert(e);
        found = true;
        break;
      }
    }
    if (!found) {
      // The whole row is monochromatic in the opposite color: it becomes
      // the new witness (a full row plus -- so far -- nothing below it).
      witness.clear();
      for (Element e = wall.row_begin(row); e < wall.row_end(row); ++e)
        witness.insert(e);
      mode = opposite(mode);
    }
  }
  return {mode, witness};
}

bool ProbeCW::supports_batch(std::size_t universe_size) const {
  return universe_size == wall_->universe_size() && wall_->row_width(0) == 1;
}

void ProbeCW::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == wall_->universe_size(),
              "batch block over the wrong universe");
  QPS_REQUIRE(wall_->row_width(0) == 1, "Probe_CW expects a width-1 top row");
  block.kernels().cw_scan(block.view(), row_offsets_.data(),
                          wall_->row_count());
}

namespace {

// Per-run scratch of R_Probe_CW: one same-colored representative per
// scanned row, per color (the witness tail below a monochromatic row), and
// the pre-drawn row orders, concatenated by row (row r's shuffled elements
// occupy row_elems[row_begin(r) .. row_end(r)), since rows partition
// [0, n)).  Two flavors behind one interface: word masks plus stack arrays
// when the rows and the universe fit in 64 (so the hot path never touches
// the heap), heap vectors for wider walls.
struct StackCwScratch {
  std::array<Element, 64> green_rep;
  std::array<Element, 64> red_rep;
  std::uint64_t has_green = 0;
  std::uint64_t has_red = 0;
  std::array<Element, 64> row_elems;

  explicit StackCwScratch(const CrumblingWall&) {}
  bool green(std::size_t row) const { return (has_green >> row) & 1ULL; }
  bool red(std::size_t row) const { return (has_red >> row) & 1ULL; }
  void set_green(std::size_t row, Element e) {
    has_green |= 1ULL << row;
    green_rep[row] = e;
  }
  void set_red(std::size_t row, Element e) {
    has_red |= 1ULL << row;
    red_rep[row] = e;
  }
};

struct HeapCwScratch {
  std::vector<Element> green_rep;
  std::vector<Element> red_rep;
  std::vector<char> has_green;
  std::vector<char> has_red;
  std::vector<Element> row_elems;

  explicit HeapCwScratch(const CrumblingWall& wall)
      : green_rep(wall.row_count()),
        red_rep(wall.row_count()),
        has_green(wall.row_count(), 0),
        has_red(wall.row_count(), 0),
        row_elems(wall.universe_size()) {}
  bool green(std::size_t row) const { return has_green[row] != 0; }
  bool red(std::size_t row) const { return has_red[row] != 0; }
  void set_green(std::size_t row, Element e) {
    has_green[row] = 1;
    green_rep[row] = e;
  }
  void set_red(std::size_t row, Element e) {
    has_red[row] = 1;
    red_rep[row] = e;
  }
};

/// `shuffle_row(data, width)` shuffles one row's elements in place: an
/// Rng's Fisher-Yates for run_with(), one lane of the drawn lane-major
/// shuffles for run_lane().
template <typename Scratch, typename ShuffleRow>
Witness r_probe_cw_impl(const CrumblingWall& wall, ProbeSession& session,
                        ShuffleRow&& shuffle_row, Scratch scratch) {
  const std::size_t n = wall.universe_size();
  const std::size_t k = wall.row_count();

  // Pre-draw every row's random order BEFORE any probing, in the scan's
  // row order (bottom-up): the draw sequence is then independent of the
  // trial's control flow (which row ends the scan).  Orders of unscanned
  // rows are simply never read.
  for (std::size_t row = k; row-- > 0;) {
    const std::size_t width = wall.row_width(row);
    const Element base = wall.row_begin(row);
    for (std::size_t i = 0; i < width; ++i)
      scratch.row_elems[base + i] = base + static_cast<Element>(i);
    shuffle_row(scratch.row_elems.data() + base, width);
  }

  for (std::size_t row = k; row-- > 0;) {
    const std::size_t width = wall.row_width(row);
    const Element base = wall.row_begin(row);

    for (std::size_t i = 0; i < width; ++i) {
      const Element e = scratch.row_elems[base + i];
      if (session.probe(e) == Color::kGreen)
        scratch.set_green(row, e);
      else
        scratch.set_red(row, e);
      if (scratch.green(row) && scratch.red(row)) break;
    }

    if (!(scratch.green(row) && scratch.red(row))) {
      // Monochromatic row: full row + one matching element per row below.
      const Color mode = scratch.green(row) ? Color::kGreen : Color::kRed;
      ElementSet witness(n);
      for (Element e = wall.row_begin(row); e < wall.row_end(row); ++e)
        witness.insert(e);
      for (std::size_t below = row + 1; below < k; ++below) {
        QPS_CHECK(mode == Color::kGreen ? scratch.green(below)
                                        : scratch.red(below),
                  "rows below a monochromatic row must have both colors");
        witness.insert(mode == Color::kGreen ? scratch.green_rep[below]
                                             : scratch.red_rep[below]);
      }
      return {mode, witness};
    }
  }
  QPS_CHECK(false, "the width-1 top row is always monochromatic");
  return {};
}

bool fits_stack_scratch(const CrumblingWall& wall) {
  // The concatenated row orders hold all n elements, and the per-row
  // representative masks hold one bit per row (row_count <= n).
  return wall.universe_size() <= 64;
}

/// R_Probe_CW on the wall's scratch flavor (see fits_stack_scratch).
template <typename ShuffleRow>
Witness run_r_probe_cw(const CrumblingWall& wall, ProbeSession& session,
                       ShuffleRow&& shuffle_row) {
  if (fits_stack_scratch(wall))
    return r_probe_cw_impl(wall, session, shuffle_row, StackCwScratch(wall));
  return r_probe_cw_impl(wall, session, shuffle_row, HeapCwScratch(wall));
}

}  // namespace

Witness RProbeCW::run_with(TrialWorkspace& /*workspace*/,
                           ProbeSession& session, Rng& rng) const {
  return run_r_probe_cw(*wall_, session, [&rng](Element* row, std::size_t w) {
    rng.shuffle_span(row, w);
  });
}

bool RProbeCW::supports_batch(std::size_t universe_size) const {
  // The batch scan, like the scalar one, relies on the width-1 top row to
  // guarantee every lane meets a monochromatic row.
  return universe_size == wall_->universe_size() && wall_->row_width(0) == 1;
}

void RProbeCW::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const CrumblingWall& wall = *wall_;
  QPS_REQUIRE(block.universe_size() == wall.universe_size(),
              "batch block over the wrong universe");
  // Probing random row elements in stored order is probing stored elements
  // of the within-row shuffled coloring: each group's row shuffles, rows
  // bottom-up, move its element rows in place.
  std::uint64_t* choices = block.lane_choices();
  for (std::size_t k = 0; k < block.group_count(); ++k) {
    draw_lane_choices(rng, choices);
    std::size_t used = 0;
    for (std::size_t row = wall.row_count(); row-- > 0;)
      used += block.shuffle_rows(k, choices + used, wall.row_begin(row),
                                 wall.row_width(row));
  }
  block.kernels().rcw_scan(block.view(), row_offsets_.data(),
                           wall.row_count());
}

std::size_t RProbeCW::lane_choice_words() const {
  std::size_t words = 0;
  for (std::size_t row = 0; row < wall_->row_count(); ++row)
    words += lane_shuffle_words(wall_->row_width(row));
  return words;
}

void RProbeCW::draw_lane_choices(Rng& rng, std::uint64_t* choices) const {
  std::size_t used = 0;
  for (std::size_t row = wall_->row_count(); row-- > 0;)
    used += draw_lane_shuffle(rng, wall_->row_width(row), choices + used);
}

Witness RProbeCW::run_lane(TrialWorkspace& /*workspace*/,
                           ProbeSession& session,
                           const std::uint64_t* choices,
                           std::size_t lane) const {
  std::size_t used = 0;
  return run_r_probe_cw(
      *wall_, session, [&](Element* row, std::size_t w) {
        used += shuffle_from_lane(choices + used, lane, row, w);
      });
}

}  // namespace qps
