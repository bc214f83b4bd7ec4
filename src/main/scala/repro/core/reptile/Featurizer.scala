package repro.core.reptile

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.frep.HierRelation
import repro.core.fmatrix.FeatureColumn

/** An auxiliary dataset (Section 3.3.2): joinable on a single attribute,
  * contributing its measure as a feature column (e.g. village -> rainfall).
  */
final case class AuxDataset(name: String, df: DataFrame, joinAttr: String, measure: String)

/** Builds the feature columns of the (factorised) feature matrix.
  *
  * Default features (Section 3.3.1): every grouping attribute becomes one
  * column whose value is the *median* of the group statistic over the
  * groups sharing that attribute value (main effects, not one-hot). The
  * medians are computed on the driver from the drill-down groups, with
  * Spark's `median` (`percentile` 0.5) interpolation.
  *
  * An attribute whose values have no parallel groups (fewer than
  * `minParallel` matrix rows per distinct value) is excluded: its main
  * effect would equal the group's own statistic and leak the value being
  * predicted. This is the degenerate case of a most specific drill-down
  * attribute with a single-attribute schema.
  */
object Featurizer {

  /** Adapter over a statistics DataFrame: one collect of the grouping
    * attributes (hierarchy by hierarchy) and `yCol`.
    */
  def build(
      statsDf: DataFrame,
      hiers: Vector[HierRelation],
      yCol: String,
      aux: Seq[AuxDataset],
      minParallel: Double = 2.0,
  ): Vector[FeatureColumn] = {
    val attrs = hiers.flatMap(_.attrs)
    val k = attrs.size
    val ys = statsDf.select((attrs :+ yCol).map(col): _*).collect().map { r =>
      Vector.tabulate(k)(i => String.valueOf(r.get(i))) -> r.getDouble(k)
    }
    build(ys, hiers, aux, minParallel)
  }

  /** Feature columns from the drill-down groups: each group's key (its
    * values of the hierarchies' attributes, hierarchy by hierarchy) and
    * the value `y` the model fits for it.
    */
  def build(
      ys: Iterable[(Vector[String], Double)],
      hiers: Vector[HierRelation],
      aux: Seq[AuxDataset],
      minParallel: Double,
  ): Vector[FeatureColumn] = {
    val n = hiers.map(_.total.toLong).product.toDouble
    val offsets = hiers.scanLeft(0)(_ + _.depth)
    val cols = Vector.newBuilder[FeatureColumn]
    cols += FeatureColumn.Intercept

    for (h <- hiers.indices; ai <- 0 until hiers(h).depth) {
      val attr = hiers(h).attrs(ai)
      val distinct = hiers(h).segments(ai).size
      if (n / distinct >= minParallel) {
        val k = offsets(h) + ai
        val map = ys.groupMap(_._1(k))(_._2).map { case (v, vs) => v -> medianOf(vs) }
        val default = if (map.isEmpty) 0.0 else medianOf(map.values)
        cols += FeatureColumn(s"main:$attr", h, ai, v => map.getOrElse(v, default))
      }
    }

    for (a <- aux; (h, ai) <- locate(hiers, a.joinAttr)) {
      val rows = a.df.select(col(a.joinAttr), col(a.measure).cast("double")).collect()
      val raw = rows.map(r => String.valueOf(r.get(0)) -> r.getDouble(1)).toMap
      val vals = raw.values.toSeq
      val mu = vals.sum / math.max(vals.size, 1)
      val sd = math.sqrt(vals.map(v => (v - mu) * (v - mu)).sum / math.max(vals.size, 1)) max 1e-12
      cols += FeatureColumn(s"aux:${a.name}", h, ai, v => raw.get(v).map(x => (x - mu) / sd).getOrElse(0.0))
    }
    cols.result()
  }

  private def locate(hiers: Vector[HierRelation], attr: String): Option[(Int, Int)] =
    hiers.indices.flatMap { h =>
      val ai = hiers(h).attrs.indexOf(attr)
      if (ai >= 0) Some((h, ai)) else None
    }.headOption

  /** The median as Spark's `percentile(_, 0.5)` computes it: the middle
    * value, or `0.5 * a + 0.5 * b` of the two middle values.
    */
  private def medianOf(vs: Iterable[Double]): Double = {
    val s = vs.toArray
    java.util.Arrays.sort(s)
    val m = s.length / 2
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(m)
    else 0.5 * s(m - 1) + 0.5 * s(m)
  }
}
