package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, greatest, lit, log1p}
import repro.core.fmatrix.FactorizedMatrix
import repro.core.frep.HierRelation
import repro.core.model.{DenseBackend, FactorizedBackend, MLBackend, MultiLevelEM}
import repro.core.reptile._
import scala.collection.mutable

/** One engine call: `Reptile.rankDim` when `target` is set, else
  * `Reptile.recommend`.
  */
final case class Query(
    fact: DataFrame,
    dims: Vector[Dimension],
    drilled: Map[String, Int],
    filters: Map[String, String],
    complaint: Complaint,
    measure: String,
    target: Option[String],
    cfg: ReptileConfig,
) {
  def run(spark: SparkSession): Vector[DimRankResult] = target match {
    case Some(t) => Vector(Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, measure, t, Nil, cfg))
    case None    => Reptile.recommend(spark, fact, dims, drilled, filters, complaint, measure, Nil, cfg)
  }
}

/** `rankDim`'s data flow rebuilt from the public call of each layer, so
  * the benchmark can time the layers from outside the engine. It mirrors
  * the engine's private steps (hierarchy order, `logTransform`,
  * `sumDirect`, the random-effect columns), and every traced call is
  * checked against the engine's own result. With the dense backend it is
  * also the correctness reference: materialized X, the same EM.
  */
object Replay {

  type Backend = FactorizedMatrix => MLBackend
  val factorized: Backend = fm => new FactorizedBackend(fm)
  val dense: Backend = fm => new DenseBackend(fm.materialize, fm.clusterRanges)

  /** Fitted models by (fact, grouping attributes, statistic, config): a
    * model does not depend on the complaint or the drill filters, so the
    * references of calls that differ only in those share it.
    */
  type Models = mutable.Map[(DataFrame, Seq[String], StatKind, ReptileConfig), (FactorizedMatrix, Array[Double])]

  def apply(q: Query, backend: Backend, tr: Tracer, models: Models = mutable.HashMap.empty): Vector[DimRankResult] =
    q.target match {
      case Some(t) => Vector(rankDim(q, t, backend, tr, models))
      case None =>
        val eligible = q.dims.filter(d => q.drilled.getOrElse(d.name, 0) < d.attrs.size)
        require(eligible.nonEmpty, "no hierarchy left to drill down")
        eligible.map(d => rankDim(q, d.name, backend, tr, models)).sortBy(_.best.score)
    }

  private def rankDim(q: Query, targetDim: String, backend: Backend, tr: Tracer, models: Models): DimRankResult = {
    val cfg = q.cfg
    require(cfg.multiLevel, "the replay covers the multi-level model only")
    val target = q.dims.find(_.name == targetDim).get
    val tDepth = q.drilled.getOrElse(targetDim, 0) + 1
    val others = q.dims.filter(d => d.name != targetDim && q.drilled.getOrElse(d.name, 0) > 0)
    val used = (others.map(d => (d, q.drilled(d.name))) :+ ((target, tDepth))).toVector
    val allAttrs = used.flatMap { case (d, dep) => d.attrs.take(dep) }

    val hiers = tr.span("frep.hier") {
      used.map { case (d, dep) => HierRelation.fromDataFrame(q.fact, d.name, d.attrs.take(dep)) }
    }
    tr.count("frep.hier.rows", hiers.map(_.total).sum)

    val (statsDf, observed) = tr.span("reptile.stats") {
      val df = Reptile.drilldownStats(q.fact, allAttrs, q.measure).cache()
      val obs = df.collect().map { r =>
        val key = allAttrs.indices.map(i => String.valueOf(r.get(i))).toVector
        val base = allAttrs.size
        key -> GroupStats(r.getDouble(base), r.getDouble(base + 1), r.getDouble(base + 2))
      }.toMap
      (df, obs)
    }
    tr.count("reptile.stats.groups", observed.size)

    val kinds: Seq[StatKind] = q.complaint.agg match {
      case AggType.Count => Seq(StatKind.CountStat)
      case AggType.Mean | AggType.Std => Seq(StatKind.MeanStat)
      case AggType.Sum =>
        if (cfg.sumDirect) Seq(StatKind.SumStat) else Seq(StatKind.CountStat, StatKind.MeanStat)
    }

    def model(kind: StatKind): (FactorizedMatrix, Array[Double]) = {
      val fcols = tr.span("reptile.featurize") {
        val tCol = s"y_${kind.name}"
        val withY =
          if (cfg.logTransform) statsDf.withColumn(tCol, log1p(greatest(col(kind.col), lit(0.0))))
          else statsDf.withColumn(tCol, col(kind.col))
        Featurizer.build(withY, hiers, tCol, Nil, cfg.minParallel)
      }
      tr.count("reptile.featurize.cols", fcols.size)
      val fm = tr.span("fmatrix.build")(new FactorizedMatrix(hiers, fcols))
      tr.count("fmatrix.n", fm.n)
      tr.count("fmatrix.m", fm.m)
      tr.count("fmatrix.clusters", fm.numClusters)
      val y = tr.span("reptile.buildy")(Reptile.buildY(fm, hiers, allAttrs, observed, kind, cfg))
      tr.count("reptile.buildy.nonempty", observed.size)
      val (bk, fit) = tr.span("model.em") {
        val bk = backend(fm)
        val reCols = cfg.randomEffects match {
          case "all"       => None
          case "intercept" => Some(Array(fm.cols.indexWhere(_.label == "intercept") max 0))
          case other       => throw new IllegalArgumentException(s"unknown randomEffects mode $other")
        }
        (bk, MultiLevelEM.fit(bk, y, cfg.emIters, cfg.ridge, reCols))
      }
      tr.count("model.em.iters", fit.iterations)
      val preds = tr.span("model.predict") {
        val raw = MultiLevelEM.predict(bk, fit)
        if (cfg.logTransform) raw.map(v => math.max(math.expm1(v), 0.0)) else raw
      }
      (fm, preds)
    }

    val perKind: Map[StatKind, (FactorizedMatrix, Array[Double])] = kinds.map { kind =>
      kind -> models.getOrElseUpdate((q.fact, allAttrs, kind, cfg), model(kind))
    }.toMap

    val result = tr.span("reptile.score") {
      val fm0 = perKind(kinds.head)._1
      def filterOf(a: String) =
        q.filters.getOrElse(a, throw new IllegalArgumentException(s"filter missing for drilled attr $a"))
      val fixedRows = used.dropRight(1).zipWithIndex.map { case ((d, dep), h) =>
        hiers(h).rowIndexOf(d.attrs.take(dep).map(filterOf))
      }
      val tHier = hiers.last
      val (cStart, cEnd) = tHier.blockOfPrefix(target.attrs.take(tDepth - 1).map(filterOf))
      val fixedKey = fixedRows.zipWithIndex.flatMap { case (r, h) => hiers(h).rows(r) }
      val candidates = (cStart until cEnd).toVector.map { r =>
        val idx = fm0.indexOf(fixedRows :+ r)
        val key = fixedKey ++ tHier.rows(r)
        val obs = observed.getOrElse(key, GroupStats.empty)
        val preds = kinds.map(k => k.name -> perKind(k)._2(idx)).toMap
        (allAttrs.zip(key).toMap, obs, Reptile.repair(obs, preds, kinds), preds)
      }
      val obsAll = candidates.map(_._2)
      val baselineScore = q.complaint.score(GroupStats.combine(obsAll))
      val scored = candidates.zipWithIndex.map { case ((values, obs, rep, preds), ci) =>
        val combined = GroupStats.combine(obsAll.updated(ci, rep))
        val residual =
          if (kinds.size == 2) obs.sum - preds("count") * preds("mean")
          else kinds.head match {
            case StatKind.CountStat => obs.count - preds("count")
            case StatKind.MeanStat  => obs.mean - preds("mean")
            case StatKind.SumStat   => obs.sum - preds("sum")
          }
        Candidate(values, obs, rep, preds, q.complaint.score(combined), residual)
      }
      DimRankResult(targetDim, target.attrs(tDepth - 1), scored, baselineScore)
    }
    tr.count("reptile.score.candidates", result.candidates.size)
    statsDf.unpersist()
    result
  }
}
