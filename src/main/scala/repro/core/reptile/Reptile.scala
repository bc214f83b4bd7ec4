package repro.core.reptile

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.fmatrix.FactorizedMatrix
import repro.core.frep.HierRelation
import repro.core.model.{FactorizedBackend, LinearModel, MLBackend, MultiLevelEM}

/** A hierarchical dimension: attributes ordered least to most specific. */
final case class Dimension(name: String, attrs: Vector[String])

/** Which group statistic a model predicts. */
sealed trait StatKind { def col: String; def name: String; def of(g: GroupStats): Double }
object StatKind {
  case object CountStat extends StatKind { val col = "stat_count"; val name = "count"; def of(g: GroupStats) = g.count }
  case object MeanStat  extends StatKind { val col = "stat_mean";  val name = "mean";  def of(g: GroupStats) = g.mean  }
  case object SumStat   extends StatKind { val col = "stat_sum";   val name = "sum";   def of(g: GroupStats) = g.sum   }
}

final case class ReptileConfig(
    emIters: Int = 20,
    multiLevel: Boolean = true,
    /** Model log1p-transformed statistics (variance stabilization for
      * count-like measures with multiplicative structure, e.g. COVID).
      */
    logTransform: Boolean = false,
    /** For SUM complaints: model the SUM statistic directly (appropriate
      * when groups are pre-aggregated, one record per group) instead of
      * separate COUNT and MEAN models.
      */
    sumDirect: Boolean = false,
    ridge: Double = 1e-8,
    /** Random-effect matrix Z (Section 3.3.4): "all" uses Z_i = X_i (the
      * paper's default); "intercept" keeps only the intercept column
      * (random intercepts), the robust choice when clusters are small
      * relative to the feature count.
      */
    randomEffects: String = "all",
    /** Main-effect features need at least this many matrix rows per
      * distinct attribute value (else the feature leaks the target).
      */
    minParallel: Double = 2.0,
)

/** One ranked drill-down group. */
final case class Candidate(
    values: Map[String, String],
    observed: GroupStats,
    repaired: GroupStats,
    predicted: Map[String, Double],
    score: Double,
    /** observed - predicted on the primary modeled statistic. */
    residual: Double,
)

/** Ranking of the groups produced by drilling down one hierarchy. */
final case class DimRankResult(
    dim: String,
    attr: String,
    candidates: Vector[Candidate],
    /** complaint value before any repair, for reference. */
    baselineScore: Double,
) {
  def ranked: Vector[Candidate] = candidates.sortBy(_.score)
  def best: Candidate = ranked.head
}

/** The non-empty drill-down groups of some hierarchies: `observed` keys
  * each group's statistics by its values of `attrs` (hierarchy by
  * hierarchy), and each relation of `hiers` projects those keys.
  */
final case class Groups(
    hiers: Vector[HierRelation],
    attrs: Vector[String],
    observed: Map[Vector[String], GroupStats],
)

/** The complaint-based drill-down engine (Problem 1).
  *
  * The only Spark work is one aggregation per drill-down: the group
  * statistics over all parallel groups (`groups`). Hierarchy relations,
  * main-effect features and the multi-level model are then built on the
  * driver from those statistics, the model over the factorised
  * representation of the feature matrix.
  */
object Reptile {

  /** Group statistics for a drill-down: one Spark groupBy over the fact
    * table computing the whole distributive set (count / mean / std / sum).
    */
  def drilldownStats(fact: DataFrame, attrs: Seq[String], measure: String): DataFrame =
    fact
      .groupBy(attrs.map(col): _*)
      .agg(
        count(lit(1)).cast("double").as("stat_count"),
        avg(col(measure)).as("stat_mean"),
        coalesce(stddev_samp(col(measure)), lit(0.0)).as("stat_std"),
        sum(col(measure)).cast("double").as("stat_sum"),
      )

  /** The drill-down groups over `used` (each hierarchy with its drilled
    * depth): one `drilldownStats` collect, decoded once, with every
    * hierarchy relation projected from the group keys on the driver.
    */
  def groups(fact: DataFrame, used: Vector[(Dimension, Int)], measure: String): Groups = {
    val attrs = used.flatMap { case (d, dep) => d.attrs.take(dep) }
    val k = attrs.size
    val observed = drilldownStats(fact, attrs, measure).collect().map { r =>
      Vector.tabulate(k)(i => String.valueOf(r.get(i))) ->
        GroupStats(r.getDouble(k), r.getDouble(k + 1), r.getDouble(k + 2))
    }.toMap
    val offsets = used.scanLeft(0)(_ + _._2)
    val hiers = used.zipWithIndex.map { case ((d, dep), h) =>
      HierRelation(d.name, d.attrs.take(dep), observed.keySet.map(_.slice(offsets(h), offsets(h + 1))).toSeq)
    }
    Groups(hiers, attrs, observed)
  }

  /** The hierarchies a drill-down of `targetDim` groups by, each with its
    * depth: the drilled non-target dimensions first and the drill-down
    * hierarchy last (Section 3.4's attribute-ordering restriction).
    */
  def drilldownDims(dims: Vector[Dimension], drilled: Map[String, Int], targetDim: String): Vector[(Dimension, Int)] = {
    val target = dims.find(_.name == targetDim)
      .getOrElse(throw new IllegalArgumentException(s"unknown dimension $targetDim"))
    val tDepth = drilled.getOrElse(targetDim, 0) + 1
    require(tDepth <= target.attrs.size, s"dimension $targetDim fully drilled")
    val others = dims.filter(d => d.name != targetDim && drilled.getOrElse(d.name, 0) > 0)
    others.map(d => (d, drilled(d.name))) :+ ((target, tDepth))
  }

  /** The value a model of `kind` fits for a group: the statistic, log1p
    * transformed when `cfg.logTransform` is set. It is both y and the
    * quantity whose medians are the main-effect features.
    */
  def yOf(kind: StatKind, cfg: ReptileConfig): GroupStats => Double =
    if (cfg.logTransform) g => math.log1p(math.max(kind.of(g), 0.0)) else kind.of

  /** Ranks the drill-down groups of one target hierarchy. */
  def rankDim(
      spark: SparkSession,
      fact: DataFrame,
      dims: Vector[Dimension],
      drilled: Map[String, Int],
      filters: Map[String, String],
      complaint: Complaint,
      measure: String,
      targetDim: String,
      aux: Seq[AuxDataset] = Nil,
      cfg: ReptileConfig = ReptileConfig(),
  ): DimRankResult = {
    val used = drilldownDims(dims, drilled, targetDim)
    val (target, tDepth) = used.last
    val Groups(hiers, allAttrs, observed) = groups(fact, used, measure)

    val kinds: Seq[StatKind] = complaint.agg match {
      case AggType.Count => Seq(StatKind.CountStat)
      case AggType.Mean | AggType.Std => Seq(StatKind.MeanStat)
      case AggType.Sum =>
        if (cfg.sumDirect) Seq(StatKind.SumStat) else Seq(StatKind.CountStat, StatKind.MeanStat)
    }

    // One model per statistic kind, all over the same hierarchies.
    val perKind: Map[StatKind, (FactorizedMatrix, Array[Double])] = kinds.map { kind =>
      val yOfGroup = yOf(kind, cfg)
      val fcols = Featurizer.build(observed.view.mapValues(yOfGroup), hiers, aux, cfg.minParallel)
      val fm = new FactorizedMatrix(hiers, fcols)
      val y = buildY(fm, hiers, allAttrs, observed, kind, cfg)
      kind -> (fm, predictions(fm, y, cfg))
    }.toMap

    // Candidate groups: siblings under the complaint tuple.
    val fm0 = perKind(kinds.head)._1
    def filterOf(a: String): String =
      filters.getOrElse(a, throw new IllegalArgumentException(s"filter missing for drilled attr $a"))
    val fixedRows: Vector[Int] = used.dropRight(1).zipWithIndex.map { case ((d, dep), h) =>
      hiers(h).rowIndexOf(d.attrs.take(dep).map(filterOf))
    }
    val fixedKey = fixedRows.zipWithIndex.flatMap { case (r, h) => hiers(h).rows(r) }
    val tHier = hiers.last
    val (cStart, cEnd) = tHier.blockOfPrefix(target.attrs.take(tDepth - 1).map(filterOf))

    val candidates = (cStart until cEnd).toVector.map { r =>
      val idx = fm0.indexOf(fixedRows :+ r)
      val key = fixedKey ++ tHier.rows(r)
      val obs = observed.getOrElse(key, GroupStats.empty)
      val preds: Map[String, Double] = kinds.map(k => k.name -> perKind(k)._2(idx)).toMap
      (allAttrs.zip(key).toMap, obs, repair(obs, preds, kinds), preds)
    }

    val obsAll = candidates.map(_._2)
    val baselineScore = complaint.score(GroupStats.combine(obsAll))
    val primary = kinds.head
    val scored = candidates.zipWithIndex.map { case ((values, obs, rep, preds), ci) =>
      val combined = GroupStats.combine(obsAll.updated(ci, rep))
      val residual =
        if (kinds.size == 2) obs.sum - preds("count") * preds("mean") // SUM via count x mean
        else primary.of(obs) - preds(primary.name)
      Candidate(values, obs, rep, preds, complaint.score(combined), residual)
    }
    DimRankResult(targetDim, target.attrs(tDepth - 1), scored, baselineScore)
  }

  /** Ranks every candidate drill-down hierarchy and orders them by how
    * much their best group repair resolves the complaint.
    */
  def recommend(
      spark: SparkSession,
      fact: DataFrame,
      dims: Vector[Dimension],
      drilled: Map[String, Int],
      filters: Map[String, String],
      complaint: Complaint,
      measure: String,
      aux: Seq[AuxDataset] = Nil,
      cfg: ReptileConfig = ReptileConfig(),
  ): Vector[DimRankResult] = {
    val eligible = dims.filter(d => drilled.getOrElse(d.name, 0) < d.attrs.size)
    require(eligible.nonEmpty, "no hierarchy left to drill down")
    eligible
      .map(d => rankDim(spark, fact, dims, drilled, filters, complaint, measure, d.name, aux, cfg))
      .sortBy(_.best.score)
      .toVector
  }

  // ------------------------------------------------------------ internals

  /** y over the full cartesian product of parallel groups (the paper's
    * worst case, Section 5.1.4: even empty groups participate). Empty
    * groups default to 0 for count/sum and to the global mean for mean.
    */
  def buildY(
      fm: FactorizedMatrix,
      hiers: Vector[HierRelation],
      allAttrs: Vector[String],
      observed: Map[Vector[String], GroupStats],
      kind: StatKind,
      cfg: ReptileConfig,
  ): Array[Double] = {
    val yOfGroup = yOf(kind, cfg)
    val default = kind match {
      case StatKind.MeanStat =>
        if (observed.isEmpty) 0.0
        else yOfGroup(GroupStats(0.0, observed.values.map(_.mean).sum / observed.size, 0.0))
      case _ => yOfGroup(GroupStats.empty)
    }
    val y = Array.fill(fm.n)(default)
    // Attribute offsets of each hierarchy inside the flat key.
    val offsets = hiers.scanLeft(0)(_ + _.depth)
    observed.foreach { case (key, gs) =>
      val rowIdxs = hiers.indices.map(h => hiers(h).rowIndexOf(key.slice(offsets(h), offsets(h + 1))))
      y(fm.indexOf(rowIdxs)) = yOfGroup(gs)
    }
    y
  }

  /** Random-effect column subset per the config. */
  private def reColsFor(fm: FactorizedMatrix, cfg: ReptileConfig): Option[Array[Int]] =
    cfg.randomEffects match {
      case "all"       => None
      case "intercept" => Some(Array(fm.cols.indexWhere(_.label == "intercept") max 0))
      case other       => throw new IllegalArgumentException(s"unknown randomEffects mode $other")
    }

  private def predictions(fm: FactorizedMatrix, y: Array[Double], cfg: ReptileConfig): Array[Double] = {
    val bk: MLBackend = new FactorizedBackend(fm)
    val raw =
      if (cfg.multiLevel)
        MultiLevelEM.predict(bk, MultiLevelEM.fit(bk, y, cfg.emIters, cfg.ridge, reColsFor(fm, cfg)))
      else LinearModel.predict(bk, LinearModel.fit(bk, y, cfg.ridge))
    if (cfg.logTransform) raw.map(v => math.max(math.expm1(v), 0.0)) else raw
  }

  /** Applies the model's expected statistics to a group (f_repair). */
  def repair(obs: GroupStats, preds: Map[String, Double], kinds: Seq[StatKind]): GroupStats = {
    var g = obs
    kinds.foreach {
      case StatKind.CountStat => g = g.copy(count = math.max(preds("count"), 0.0))
      case StatKind.MeanStat  => g = g.copy(mean = preds("mean"))
      case StatKind.SumStat =>
        val s = preds("sum")
        g = if (g.count > 0) g.copy(mean = s / g.count) else GroupStats(1.0, s, 0.0)
    }
    g
  }
}
