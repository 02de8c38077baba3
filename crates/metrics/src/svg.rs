//! Static SVG line charts for the figure regenerators — each
//! `pgrid figure figN` emits the paper figure as a plot next to its
//! table and CSV (the CSV/table double as the accessible data view).
//!
//! Design follows the standard data-viz method: categorical hues in a
//! fixed, CVD-validated order (never cycled), thin 2px line marks,
//! recessive grid and axes, text in ink tokens (never the series
//! color), a legend plus direct end-of-line labels for every series,
//! and a light chart surface. Palette slots are the validated
//! reference palette; worst adjacent CVD ΔE 24.2 (validated with the
//! palette tool; the two sub-3:1 slots are relieved by the direct
//! labels and the accompanying tables).

use std::fmt::Write as _;

/// Fixed categorical slot order (light mode). Index = series position.
const SERIES_COLORS: [&str; 8] = [
    "#2a78d6", // blue
    "#1baf7a", // aqua
    "#eda100", // yellow
    "#008300", // green
    "#4a3aa7", // violet
    "#e34948", // red
    "#e87ba4", // magenta
    "#eb6834", // orange
];
const SURFACE: &str = "#fcfcfb";
const INK_PRIMARY: &str = "#0b0b0b";
const INK_SECONDARY: &str = "#52514e";
const GRID: &str = "#e4e3df";

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend / direct label.
    pub label: String,
    /// (x, y) points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

/// A line chart (the form of every figure in the paper: CDFs, time
/// series, cost-vs-dimensions curves).
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title (states the measure; a single series needs no
    /// legend because the title names it).
    pub title: String,
    /// X-axis label (units included).
    pub x_label: String,
    /// Y-axis label (units included).
    pub y_label: String,
    series: Vec<Series>,
    /// Fixed lower y bound (e.g. 80% for the paper's CDF figures);
    /// `None` = start at the data minimum (or 0 if positive data).
    pub y_min: Option<f64>,
    /// Fixed upper y bound; `None` = data maximum.
    pub y_max: Option<f64>,
}

/// "Nice" tick step ≈ range/target, snapped to 1/2/5×10^k.
fn nice_step(range: f64, target: usize) -> f64 {
    if range <= 0.0 {
        return 1.0;
    }
    let raw = range / target.max(1) as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let n = raw / mag;
    let snapped = if n <= 1.0 {
        1.0
    } else if n <= 2.0 {
        2.0
    } else if n <= 5.0 {
        5.0
    } else {
        10.0
    };
    snapped * mag
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 10_000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{:.0}", v)
    } else {
        format!("{v:.2}")
    }
}

impl LineChart {
    /// A chart with no series yet.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            y_min: None,
            y_max: None,
        }
    }

    /// Adds a series (at most 8 — categorical slots are fixed, never
    /// cycled; fold further series into "other" upstream).
    ///
    /// # Panics
    ///
    /// Panics beyond 8 series or on an empty point list.
    pub fn series(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        assert!(self.series.len() < SERIES_COLORS.len(), "too many series");
        assert!(!points.is_empty(), "series needs points");
        assert!(
            points.iter().all(|(x, y)| x.is_finite() && y.is_finite()),
            "series points must be finite"
        );
        self.series.push(Series {
            label: label.into(),
            points,
        });
        self
    }

    /// Number of series added so far.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the chart has no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the chart as a standalone SVG document.
    ///
    /// # Panics
    ///
    /// Panics if no series were added.
    pub fn render_svg(&self) -> String {
        assert!(!self.series.is_empty(), "chart needs at least one series");
        let (w, h) = (760.0, 440.0);
        // Room on the right for direct end-of-line labels.
        let (ml, mr, mt, mb) = (64.0, 110.0, 54.0, 56.0);
        let (pw, ph) = (w - ml - mr, h - mt - mb);

        let xs = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0));
        let ys = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1));
        let x_min = xs.clone().fold(f64::INFINITY, f64::min);
        let x_max = xs.fold(f64::NEG_INFINITY, f64::max);
        let data_y_min = ys.clone().fold(f64::INFINITY, f64::min);
        let data_y_max = ys.fold(f64::NEG_INFINITY, f64::max);
        let y_min = self
            .y_min
            .unwrap_or(if data_y_min > 0.0 { 0.0 } else { data_y_min });
        let mut y_max = self.y_max.unwrap_or(data_y_max);
        if (y_max - y_min).abs() < 1e-12 {
            y_max = y_min + 1.0;
        }
        let x_span = if (x_max - x_min).abs() < 1e-12 {
            1.0
        } else {
            x_max - x_min
        };
        let px = |x: f64| ml + (x - x_min) / x_span * pw;
        let py = |y: f64| mt + ph - (y - y_min) / (y_max - y_min) * ph;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="system-ui, sans-serif">"#
        );
        let _ = write!(svg, r#"<rect width="{w}" height="{h}" fill="{SURFACE}"/>"#);
        // Title (primary ink).
        let _ = write!(
            svg,
            r#"<text x="{ml}" y="24" font-size="15" font-weight="600" fill="{INK_PRIMARY}">{}</text>"#,
            xml_escape(&self.title)
        );

        // Recessive horizontal gridlines + y ticks.
        let ystep = nice_step(y_max - y_min, 5);
        let mut yt = (y_min / ystep).ceil() * ystep;
        while yt <= y_max + 1e-9 {
            let yy = py(yt);
            let _ = write!(
                svg,
                r#"<line x1="{ml}" y1="{yy:.1}" x2="{:.1}" y2="{yy:.1}" stroke="{GRID}" stroke-width="1"/>"#,
                ml + pw
            );
            let _ = write!(
                svg,
                r#"<text x="{:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="end">{}</text>"#,
                ml - 8.0,
                yy + 4.0,
                fmt_tick(yt)
            );
            yt += ystep;
        }
        // X ticks along the recessive baseline.
        let xstep = nice_step(x_span, 6);
        let mut xt = (x_min / xstep).ceil() * xstep;
        let baseline = mt + ph;
        let _ = write!(
            svg,
            r#"<line x1="{ml}" y1="{baseline:.1}" x2="{:.1}" y2="{baseline:.1}" stroke="{INK_SECONDARY}" stroke-width="1"/>"#,
            ml + pw
        );
        while xt <= x_max + 1e-9 {
            let xx = px(xt);
            let _ = write!(
                svg,
                r#"<text x="{xx:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
                baseline + 18.0,
                fmt_tick(xt)
            );
            xt += xstep;
        }
        // Axis labels (secondary ink).
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
            ml + pw / 2.0,
            h - 14.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
            mt + ph / 2.0,
            mt + ph / 2.0,
            xml_escape(&self.y_label)
        );

        // Legend row (only for >= 2 series; one series is named by the
        // title). Colored swatch carries identity; text stays in ink.
        if self.series.len() >= 2 {
            let mut lx = ml;
            let ly = 40.0;
            for (i, s) in self.series.iter().enumerate() {
                let c = SERIES_COLORS[i];
                let _ = write!(
                    svg,
                    r#"<rect x="{lx:.1}" y="{:.1}" width="14" height="3.5" rx="1.75" fill="{c}"/>"#,
                    ly - 4.0
                );
                let _ = write!(
                    svg,
                    r#"<text x="{:.1}" y="{ly:.1}" font-size="12" fill="{INK_PRIMARY}">{}</text>"#,
                    lx + 19.0,
                    xml_escape(&s.label)
                );
                lx += 19.0 + 7.5 * s.label.len() as f64 + 22.0;
            }
        }

        // Data marks: thin 2px lines, plus a direct label at each
        // line's end (identity never rides on color alone).
        for (i, s) in self.series.iter().enumerate() {
            let c = SERIES_COLORS[i];
            let mut d = String::new();
            for (j, (x, y)) in s.points.iter().enumerate() {
                let _ = write!(
                    d,
                    "{}{:.1},{:.1}",
                    if j == 0 { "M" } else { " L" },
                    px(*x),
                    py(y.clamp(y_min, y_max))
                );
            }
            let _ = write!(
                svg,
                r#"<path d="{d}" fill="none" stroke="{c}" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>"#
            );
            let (lx, ly) = *s.points.last().unwrap();
            // Stagger end labels vertically if they would collide.
            let _ = write!(
                svg,
                r#"<text x="{:.1}" y="{:.1}" font-size="11" fill="{INK_PRIMARY}">{}</text>"#,
                px(lx) + 6.0,
                py(ly.clamp(y_min, y_max)) + 4.0 + 12.0 * label_offset(i, self.series.len()),
                xml_escape(&s.label)
            );
        }
        svg.push_str("</svg>");
        svg
    }

    /// Writes the SVG to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render_svg())
    }
}

/// Small deterministic vertical stagger so end-of-line labels of
/// adjacent series don't overprint when lines converge.
fn label_offset(i: usize, n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        i as f64 - (n as f64 - 1.0) / 2.0
    }
}

/// A 2-D rectangle map: renders CAN zones (or any set of labeled
/// axis-aligned boxes in the unit square) as an SVG. Fills stay on the
/// surface; identity is carried by the per-box label, so no categorical
/// palette is needed (boxes are structure, not series).
#[derive(Debug, Clone)]
pub struct RectMap {
    /// Map title.
    pub title: String,
    rects: Vec<(f64, f64, f64, f64, String)>,
}

impl RectMap {
    /// An empty map.
    pub fn new(title: impl Into<String>) -> Self {
        RectMap {
            title: title.into(),
            rects: Vec::new(),
        }
    }

    /// Adds a box `[x0, x1) x [y0, y1)` in unit coordinates with a
    /// center label.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate or out-of-unit box.
    pub fn rect(
        &mut self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        label: impl Into<String>,
    ) -> &mut Self {
        assert!(x0 < x1 && y0 < y1, "degenerate rect");
        assert!((0.0..=1.0).contains(&x0) && x1 <= 1.0 && (0.0..=1.0).contains(&y0) && y1 <= 1.0);
        self.rects.push((x0, y0, x1, y1, label.into()));
        self
    }

    /// Number of boxes.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Renders the map as a standalone SVG (y grows upward, as in the
    /// paper's CAN figures).
    pub fn render_svg(&self) -> String {
        let (w, h) = (520.0, 560.0);
        let (m, title_h) = (20.0, 34.0);
        let side = w - 2.0 * m;
        let ox = m;
        let oy = title_h + 6.0;
        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="system-ui, sans-serif">"#
        );
        let _ = write!(svg, r#"<rect width="{w}" height="{h}" fill="{SURFACE}"/>"#);
        let _ = write!(
            svg,
            r#"<text x="{m}" y="24" font-size="15" font-weight="600" fill="{INK_PRIMARY}">{}</text>"#,
            xml_escape(&self.title)
        );
        for (x0, y0, x1, y1, label) in &self.rects {
            // Flip y: data y=0 is the bottom edge.
            let rx = ox + x0 * side;
            let ry = oy + (1.0 - y1) * side;
            let rw = (x1 - x0) * side;
            let rh = (y1 - y0) * side;
            let _ = write!(
                svg,
                r#"<rect x="{rx:.1}" y="{ry:.1}" width="{rw:.1}" height="{rh:.1}" fill="none" stroke="{INK_SECONDARY}" stroke-width="1"/>"#
            );
            if rw > 26.0 && rh > 16.0 {
                let _ = write!(
                    svg,
                    r#"<text x="{:.1}" y="{:.1}" font-size="11" fill="{INK_PRIMARY}" text-anchor="middle">{}</text>"#,
                    rx + rw / 2.0,
                    ry + rh / 2.0 + 4.0,
                    xml_escape(label)
                );
            }
        }
        // Unit-square frame.
        let _ = write!(
            svg,
            r#"<rect x="{ox}" y="{oy}" width="{side}" height="{side}" fill="none" stroke="{INK_PRIMARY}" stroke-width="1.5"/>"#
        );
        svg.push_str("</svg>");
        svg
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> LineChart {
        let mut c = LineChart::new("Broken links over time", "time (s)", "broken links");
        c.series("Vanilla", vec![(0.0, 0.0), (100.0, 10.0), (200.0, 12.0)]);
        c.series("Compact", vec![(0.0, 0.0), (100.0, 30.0), (200.0, 42.0)]);
        c.series("Adaptive", vec![(0.0, 0.0), (100.0, 15.0), (200.0, 18.0)]);
        c
    }

    #[test]
    fn renders_valid_svg_shell() {
        let svg = demo().render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 3, "one path per series");
    }

    #[test]
    fn legend_present_for_multiple_series_absent_for_one() {
        let svg = demo().render_svg();
        // Legend swatches (rects beyond the surface rect).
        assert!(svg.matches("<rect").count() >= 4);
        let mut single = LineChart::new("One", "x", "y");
        single.series("only", vec![(0.0, 1.0), (1.0, 2.0)]);
        let svg1 = single.render_svg();
        assert_eq!(
            svg1.matches("<rect").count(),
            1,
            "single series: surface only, no legend swatches"
        );
    }

    #[test]
    fn every_series_gets_a_direct_label() {
        let svg = demo().render_svg();
        assert_eq!(svg.matches(">Vanilla<").count(), 2, "legend + end label");
        assert_eq!(svg.matches(">Compact<").count(), 2);
    }

    #[test]
    fn fixed_slot_order_is_respected() {
        let svg = demo().render_svg();
        let blue = svg.find("#2a78d6").unwrap();
        let aqua = svg.find("#1baf7a").unwrap();
        let yellow = svg.find("#eda100").unwrap();
        assert!(
            blue < aqua && aqua < yellow,
            "slots assigned in fixed order"
        );
    }

    #[test]
    fn y_bounds_can_pin_the_cdf_window() {
        let mut c = LineChart::new("CDF", "wait", "%");
        c.y_min = Some(80.0);
        c.y_max = Some(100.0);
        c.series("can-het", vec![(0.0, 86.0), (1000.0, 99.0)]);
        let svg = c.render_svg();
        assert!(svg.contains(">80<"));
        assert!(svg.contains(">100<"));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut c = LineChart::new("a<b & c", "x", "y");
        c.series("s>1", vec![(0.0, 0.0), (1.0, 1.0)]);
        let svg = c.render_svg();
        assert!(svg.contains("a&lt;b &amp; c"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn nice_steps_are_125() {
        assert_eq!(nice_step(100.0, 5), 20.0);
        assert_eq!(nice_step(7.0, 5), 2.0);
        assert_eq!(nice_step(0.05, 5), 0.01);
        assert_eq!(nice_step(50000.0, 6), 10000.0);
    }

    #[test]
    #[should_panic(expected = "too many series")]
    fn rejects_ninth_series() {
        let mut c = LineChart::new("x", "x", "y");
        for i in 0..9 {
            c.series(format!("s{i}"), vec![(0.0, 0.0), (1.0, 1.0)]);
        }
    }

    #[test]
    fn rect_map_renders_all_boxes() {
        let mut m = RectMap::new("zones");
        m.rect(0.0, 0.0, 0.5, 1.0, "A");
        m.rect(0.5, 0.0, 1.0, 0.5, "B");
        m.rect(0.5, 0.5, 1.0, 1.0, "C");
        let svg = m.render_svg();
        // surface + 3 zone rects + frame
        assert_eq!(svg.matches("<rect").count(), 5);
        assert!(svg.contains(">A<") && svg.contains(">B<") && svg.contains(">C<"));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rect_map_rejects_degenerate() {
        RectMap::new("x").rect(0.5, 0.0, 0.5, 1.0, "bad");
    }

    #[test]
    fn save_writes_file() {
        let p = std::env::temp_dir().join("pgrid_svg_test.svg");
        demo().save(&p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("</svg>"));
    }
}
