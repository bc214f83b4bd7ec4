package repro.core

import repro.{Oracle, SparkSpec}
import repro.core.frep.HierRelation
import repro.core.reptile.{AuxDataset, Featurizer, Reptile}
import org.apache.spark.sql.functions._

class FeaturizerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val fact = Seq(
    ("t1", "d1", "v1", 2.0), ("t1", "d1", "v2", 4.0), ("t1", "d2", "v3", 6.0),
    ("t2", "d1", "v1", 10.0), ("t2", "d1", "v2", 12.0), ("t2", "d2", "v3", 20.0),
    ("t2", "d2", "v3", 22.0),
  ).toDF("t", "d", "v", "measure")

  private lazy val hiers = Vector(
    HierRelation.fromDataFrame(fact, "time", Seq("t")),
    HierRelation.fromDataFrame(fact, "geo", Seq("d", "v")),
  )

  private lazy val statsDf =
    Reptile.drilldownStats(fact, Seq("t", "d", "v"), "measure")
      .withColumn("y", col("stat_mean")).cache()

  test("drilldownStats matches DuckDB group statistics") {
    Oracle.assertEquivalent(
      statsDf.select($"t", $"d", $"v", $"stat_count", $"stat_mean", $"stat_sum"),
      """SELECT t, d, v, count(*)::DOUBLE AS stat_count, avg(measure::DOUBLE) AS stat_mean,
        |       sum(measure::DOUBLE) AS stat_sum
        |FROM fact GROUP BY t, d, v""".stripMargin,
      "fact" -> fact,
    )
  }

  test("main effects are bit-identical to Spark's median of the group statistic") {
    val cols = Featurizer.build(statsDf, hiers, "y", Nil, minParallel = 2.0)
    // d1 has 4 groups, so the even-count interpolation is covered too.
    for (attr <- Seq("t", "d", "v")) {
      val main = cols.find(_.label == s"main:$attr").get
      val expected = statsDf.groupBy(col(attr)).agg(median($"y")).collect()
      assert(expected.nonEmpty)
      expected.foreach { r =>
        val v = r.getString(0)
        assert(java.lang.Double.doubleToRawLongBits(main.f(v)) == java.lang.Double.doubleToRawLongBits(r.getDouble(1)),
          s"$attr=$v: ${main.f(v)} vs Spark ${r.getDouble(1)}")
      }
    }
  }

  test("intercept is always the first column") {
    val cols = Featurizer.build(statsDf, hiers, "y", Nil)
    assert(cols.head.label == "intercept")
    assert(cols.head.f("anything") == 1.0)
  }

  test("leaky attributes (no parallel groups) are excluded") {
    // v identifies a unique (t,d,v) group only jointly with t; with both
    // hierarchies present every attr has >= 2 rows per value, so all appear.
    val cols = Featurizer.build(statsDf, hiers, "y", Nil, minParallel = 2.0)
    assert(cols.exists(_.label == "main:v"))
    // but over a single-attribute matrix each value is its own group:
    val soloHier = Vector(HierRelation.fromDataFrame(fact, "geo", Seq("v")))
    val soloStats = Reptile.drilldownStats(fact, Seq("v"), "measure").withColumn("y", col("stat_mean"))
    val soloCols = Featurizer.build(soloStats, soloHier, "y", Nil, minParallel = 2.0)
    assert(!soloCols.exists(_.label == "main:v"))
    assert(soloCols.map(_.label) == Vector("intercept"))
  }

  test("auxiliary features are z-scored and keyed on the join attribute") {
    val auxDf = Seq(("v1", 10.0), ("v2", 20.0), ("v3", 30.0)).toDF("v", "rain")
    val cols = Featurizer.build(statsDf, hiers, "y", Seq(AuxDataset("rain", auxDf, "v", "rain")))
    val rainCol = cols.find(_.label == "aux:rain").get
    assert(math.abs(rainCol.f("v2")) < 1e-12) // centered
    assert(rainCol.f("v3") > 0 && rainCol.f("v1") < 0)
    assert(math.abs(rainCol.f("v1") + rainCol.f("v3")) < 1e-12)
    assert(rainCol.f("unknown") == 0.0) // missing join rows default to 0
  }

  test("aux datasets with an unknown join attribute are skipped") {
    val auxDf = Seq(("x", 1.0)).toDF("nope", "m")
    val cols = Featurizer.build(statsDf, hiers, "y", Seq(AuxDataset("bad", auxDf, "nope", "m")))
    assert(!cols.exists(_.label == "aux:bad"))
  }
}
