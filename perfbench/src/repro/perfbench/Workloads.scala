package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.reptile._
import repro.synth.{CovidSynth, DatasetSynth}
import scala.util.Random

/** One engine call of a workload. `paperCheck`, when set, decides whether
  * the result is right; otherwise the result is compared with the dense
  * reference computed for `key`.
  */
final case class CallSpec(
    key: String,
    query: Query,
    firstOnFact: Boolean,
    paperCheck: Option[Vector[DimRankResult] => Boolean] = None,
)

/** A workload generates its inputs from the seed and issues its engine
  * calls in passes. `exec` runs one call and returns its result, which
  * steers the next call, as an analyst's next drill-down follows the last
  * answer.
  */
trait Workload {
  def settings: Seq[(String, String)]
  /** Engine calls in each set-up's warm-up pass. */
  def warmupCalls: Int
  /** Generates the inputs and caches the fact table. */
  def setup(spark: SparkSession): Unit
  def pass(spark: SparkSession, exec: CallSpec => Vector[DimRankResult]): Unit
}

object Workload {
  val names: Seq[String] = Seq("covid_issues", "compas_session", "sparse_wide")

  def apply(name: String, seed: Long): Workload = name match {
    case "covid_issues"   => new CovidIssues(seed)
    case "compas_session" => new CompasSession(seed)
    case "sparse_wide"    => new SparseWide(seed)
    case other => throw new IllegalArgumentException(s"unknown workload $other (one of ${names.mkString(", ")})")
  }

  private[perfbench] def recached(fact: DataFrame): DataFrame = {
    fact.unpersist(blocking = true)
    fact.cache()
    fact.count()
    fact
  }
}

/** Tables 1-2: the 30 COVID issues, each on its own small corrupted fact
  * table (generated and cached outside the timed calls), with the
  * configuration of the COVID experiment. A US issue is one `rankDim`
  * call; a global issue drills region, then country. A call is right when
  * its detection matches the paper's Reptile checkmark.
  *
  * The checkmarks hold for the experiment's synthetic panel (data seed 42,
  * 30/30 agreement); another noise seed can flip a borderline issue, so
  * the benchmark seed sets the order of the issues, not the panel.
  */
final class CovidIssues(seed: Long) extends Workload {
  private val cfg = ReptileConfig(emIters = 12, logTransform = true, sumDirect = true, randomEffects = "intercept")
  private val dataSeed = 42L
  private val issues = new Random(seed).shuffle(CovidSynth.allIssues)
  private val regionOf = CovidSynth.globalCountries.map { case (r, c, _) => c -> r }.toMap
  // Calls are short; the first ten or so of a JVM run slower while the JIT
  // compiles the Spark planning path.
  val warmupCalls = 5

  def settings: Seq[(String, String)] = Seq(
    "issues" -> issues.size.toString,
    "calls_per_pass" -> (CovidSynth.usIssues.size + 2 * CovidSynth.globalIssues.size).toString,
    "data_seed" -> dataSeed.toString,
    "issue_order" -> issues.map(_.id).mkString(","),
    "config" -> cfg.toString,
  )

  def setup(spark: SparkSession): Unit = ()

  def pass(spark: SparkSession, exec: CallSpec => Vector[DimRankResult]): Unit =
    issues.foreach { issue =>
      val us = issue.scope == "us"
      val fact = Workload.recached(
        if (us) CovidSynth.corruptedUs(spark, issue, dataSeed) else CovidSynth.corruptedGlobal(spark, issue, dataSeed))
      try {
        val day = CovidSynth.dayKey(issue.day)
        val complaint = Complaint(AggType.Sum, issue.dir)
        def query(dims: Vector[Dimension], drilled: Map[String, Int], filters: Map[String, String]) =
          Query(fact, dims, drilled, filters, complaint, "value", Some("geo"), cfg)
        def detected(attr: String)(out: Vector[DimRankResult]) =
          (out.head.best.values(attr) == issue.location) == issue.paperReptile
        if (us) {
          val dims = Vector(Dimension("time", Vector("day")), Dimension("geo", Vector("state")))
          exec(CallSpec(issue.id, query(dims, Map("time" -> 1), Map("day" -> day)), firstOnFact = true,
            Some(detected("state"))))
        } else {
          val dims = Vector(Dimension("time", Vector("day")), Dimension("geo", Vector("region", "country")))
          // The region step is right unless the paper detects the issue
          // and the step leaves the issue's region.
          val regionOk = (out: Vector[DimRankResult]) =>
            !issue.paperReptile || out.head.best.values("region") == regionOf(issue.location)
          val step1 = exec(CallSpec(s"${issue.id}/region", query(dims, Map("time" -> 1), Map("day" -> day)),
            firstOnFact = true, Some(regionOk)))
          val region = step1.head.best.values("region")
          exec(CallSpec(s"${issue.id}/country",
            query(dims, Map("time" -> 1, "geo" -> 1), Map("day" -> day, "region" -> region)),
            firstOnFact = false, Some(detected("country"))))
        }
      } finally fact.unpersist()
    }
}

/** Figure 10's COMPAS-like table: one pass is an analyst session of six
  * `recommend` calls, drilling time, time, time, age, race into the group
  * each hierarchy's ranking puts first. Every pass re-caches the fact.
  */
final class CompasSession(seed: Long) extends Workload {
  private val dims = Vector(
    Dimension("time", Vector("year", "month", "day")),
    Dimension("age", Vector("age")),
    Dimension("race", Vector("race")),
    Dimension("charge", Vector("charge")),
  )
  private val drillOrder = Vector("time", "time", "time", "age", "race")
  private val cfg = ReptileConfig()
  private val complaint = Complaint(AggType.Count, Direction.TooHigh)
  private var fact: DataFrame = _
  val warmupCalls = 1

  def settings: Seq[(String, String)] = Seq(
    "rows" -> "60843",
    "hierarchies" -> "time(year,month,day) age race charge",
    "calls_per_pass" -> (drillOrder.size + 1).toString,
    "data_seed" -> seed.toString,
    "config" -> cfg.toString,
  )

  def setup(spark: SparkSession): Unit = {
    fact = DatasetSynth.compasLike(spark, seed = seed).cache()
    fact.count()
  }

  def pass(spark: SparkSession, exec: CallSpec => Vector[DimRankResult]): Unit = {
    Workload.recached(fact)
    var drilled = Map.empty[String, Int]
    var filters = Map.empty[String, String]
    for (step <- 0 to drillOrder.size) {
      val key = s"call$step:" + filters.toSeq.sorted.map { case (a, v) => s"$a=$v" }.mkString(",")
      val out = exec(CallSpec(key, Query(fact, dims, drilled, filters, complaint, "v", None, cfg), step == 0))
      if (step < drillOrder.size) {
        val next = out.find(_.dim == drillOrder(step)).get
        filters += next.attr -> next.best.values(next.attr)
        drilled += next.dim -> (drilled.getOrElse(next.dim, 0) + 1)
      }
    }
  }
}

/** The paper's Section 5.1.4 regime: four one-attribute hierarchies of
  * 100 x 50 x 40 x 5 values and 100,000 rows. Three are drilled to the
  * tuple with the most rows and `rankDim` targets the fourth, so the model
  * has n = 1,000,000 parallel groups in 200,000 clusters, about 9.5%
  * non-empty. A pass re-caches the fact, then cycles COUNT, MEAN and SUM
  * complaints over the same fact and drill state.
  */
final class SparseWide(seed: Long) extends Workload {
  private val cards = Vector(100, 50, 40, 5)
  private val rows = 100000
  private val dims = cards.indices.toVector.map(h => Dimension(s"h$h", Vector(s"a$h")))
  private val cfg = ReptileConfig()
  private val complaints = Vector(AggType.Count, AggType.Mean, AggType.Sum).map(Complaint(_, Direction.TooHigh))
  private var fact: DataFrame = _
  private var filters = Map.empty[String, String]
  // No warm-up call: each call lasts seconds, and the dense reference pass
  // that precedes the timed calls runs the same Spark queries and EM code.
  val warmupCalls = 0

  def settings: Seq[(String, String)] = Seq(
    "rows" -> rows.toString,
    "cardinalities" -> cards.mkString("x"),
    "calls_per_pass" -> complaints.size.toString,
    "data_seed" -> seed.toString,
    "config" -> cfg.toString,
  )

  private def value(h: Int, i: Int): String = f"h$h-v$i%03d"

  def setup(spark: SparkSession): Unit = {
    import spark.implicits._
    val rng = new Random(seed)
    // Additive per-value effects plus noise, so the model has structure.
    val effects = cards.map(c => Array.fill(c)(rng.nextGaussian()))
    val data = Vector.fill(rows) {
      val idx = cards.map(rng.nextInt)
      val v = 10.0 + idx.indices.map(h => effects(h)(idx(h))).sum + 0.5 * rng.nextGaussian()
      (value(0, idx(0)), value(1, idx(1)), value(2, idx(2)), value(3, idx(3)), v)
    }
    val top = data.groupBy(r => (r._1, r._2, r._3)).view.mapValues(_.size).toVector
      .maxBy { case (k, n) => (n, k) }._1
    filters = Map("a0" -> top._1, "a1" -> top._2, "a2" -> top._3)
    fact = data.toDF("a0", "a1", "a2", "a3", "v").cache()
    fact.count()
  }

  def pass(spark: SparkSession, exec: CallSpec => Vector[DimRankResult]): Unit = {
    Workload.recached(fact)
    val drilled = Map("h0" -> 1, "h1" -> 1, "h2" -> 1)
    complaints.zipWithIndex.foreach { case (c, i) =>
      exec(CallSpec(c.agg.name, Query(fact, dims, drilled, filters, c, "v", Some("h3"), cfg), i == 0))
    }
  }
}
