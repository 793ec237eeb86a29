// Sections IV-C/IV-D of the paper (Figures 6-8): beam formation and
// refinement.
//
// Trace the beam particles back to their injection (t=14..17), render the
// per-timestep pseudocolor views (Figure 6), report injection statistics
// (Figure 7), then refine the selection with an additional x threshold at
// t=14 to isolate the particles injected into the first wake period
// (Figure 8) and compare the refined subset's traces with the whole beam.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/session.hpp"
#include "example_common.hpp"

int main() {
  using namespace qdv;

  const auto dir = examples::ensure_2d_dataset();
  core::ExplorationSession session = core::ExplorationSession::open(dir);
  const std::size_t t_sel = session.num_timesteps() - 1;

  session.set_focus("px > 8.872e10");
  std::vector<std::uint64_t> beam_ids = session.selected_ids(t_sel);
  std::cout << "beam: " << beam_ids.size() << " particles selected at t=" << t_sel
            << "\n";
  if (beam_ids.size() > 400) beam_ids.resize(400);

  // --- Figure 6: the beam at t=14..17, colored by px ----------------------------
  session.set_focus(Query::id_in("id", beam_ids));
  for (std::size_t t = 14; t <= 17; ++t) {
    const render::Image img = session.render_scatter(t, "x", "y", "px");
    const auto out =
        examples::output_dir() / ("fig06_beam_t" + std::to_string(t) + ".ppm");
    img.write_ppm(out);
    examples::report_image(out, "Fig 6: beam particles at t=" + std::to_string(t));
  }

  // --- Figure 7: injection statistics from the traces ---------------------------
  const core::ParticleTracks tracks = session.track(beam_ids, 12, 18, {"x", "px"});
  std::cout << "\n  t    particles inside window\n";
  for (std::size_t ti = 0; ti < tracks.timesteps().size(); ++ti)
    std::cout << "  " << tracks.timesteps()[ti] << "    " << tracks.count_present(ti)
              << "\n";
  std::cout << "(two injection sets: most particles enter at t=14, stragglers at "
               "t=15, as in the paper's Figure 6/7)\n";

  // --- Figure 8: refinement by an extra x threshold at t=14 ----------------------
  // At t=14 the first-period particles enter at the right side of the window;
  // use the window midpoint as the separating threshold.
  const io::TimestepTable& t14 = session.dataset().table(14);
  const auto xs = t14.column("x");
  double xmin = xs[0], xmax = xs[0];
  for (const double v : xs) {
    xmin = std::min(xmin, v);
    xmax = std::max(xmax, v);
  }
  const double x_threshold = 0.5 * (xmin + xmax);

  const QueryPtr beam_query = Query::id_in("id", beam_ids);
  const QueryPtr refined_query = Query::land(
      beam_query, Query::compare("x", CompareOp::kGt, x_threshold));
  const std::vector<std::uint32_t> refined_rows =
      session.engine().select(refined_query).bits(14)->to_positions();
  const auto id_col = t14.id_column("id");
  std::vector<std::uint64_t> refined_ids;
  for (const std::uint32_t r : refined_rows) refined_ids.push_back(id_col[r]);
  std::cout << "\nrefinement at t=14 with x > " << x_threshold << ": "
            << refined_ids.size() << " of " << beam_ids.size()
            << " beam particles (first wake period)\n";

  // Render the refined selection (green) against the whole beam (red).
  session.set_focus(beam_query);
  render::Image img = session.render_scatter(15, "x", "y", "px");
  const auto out8 = examples::output_dir() / "fig08_refined_t15.ppm";
  img.write_ppm(out8);
  examples::report_image(out8, "Fig 8b: refined selection in physical space");

  // Compare traces: the refined subset focuses into the center of the beam.
  const core::ParticleTracks whole = session.track(beam_ids, 15, 18, {"y"});
  const core::ParticleTracks refined = session.track(refined_ids, 15, 18, {"y"});
  auto spread_y = [](const core::ParticleTracks& tr, std::size_t ti) {
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < tr.ids().size(); ++k) {
      const double v = tr.value(ti, "y", k);
      if (std::isnan(v)) continue;
      sum += v;
      sum2 += v * v;
      ++n;
    }
    if (n == 0) return 0.0;
    const double mean = sum / static_cast<double>(n);
    return std::sqrt(std::max(0.0, sum2 / static_cast<double>(n) - mean * mean));
  };
  std::cout << "\n  t    y-spread whole beam    y-spread refined subset\n";
  for (std::size_t ti = 0; ti < whole.timesteps().size(); ++ti)
    std::cout << "  " << whole.timesteps()[ti] << "    " << spread_y(whole, ti)
              << "    " << spread_y(refined, ti) << "\n";
  std::cout << "(the refined particles become strongly focused over time, "
               "Section IV-D)\n";
  return 0;
}
