package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.fmatrix.FactorizedMatrix
import repro.core.model.{DenseBackend, FactorizedBackend, MultiLevelEM}
import repro.core.reptile._

/** Figure 10: end-to-end runtime on Absentee-like and COMPAS-like data.
  *
  * Each invocation evaluates the predetermined drill-down attribute: the
  * data side (one Spark aggregation for the group statistics, then
  * driver-side hierarchies and features) is shared; the model side
  * is timed twice — Reptile's factorised pipeline vs the "Matlab" pipeline
  * that materializes the full feature matrix and trains with dense ops.
  * Both run the same 20 EM iterations; only the matrix representation
  * differs, as in the paper.
  */
object EndToEndExp {

  final case class E2ERow(dataset: String, invocation: Int, target: String, n: Int, m: Int,
                          clusters: Int, sparkMs: Double, reptileMs: Double, matlabMs: Double)

  final case class Setup(name: String, fact: SparkSession => DataFrame,
                         dims: Vector[Dimension], drillOrder: Vector[String], measure: String)

  def absenteeSetup: Setup = Setup(
    "absentee",
    spark => repro.synth.DatasetSynth.absenteeLike(spark),
    Vector(
      Dimension("county", Vector("county")),
      Dimension("party", Vector("party")),
      Dimension("week", Vector("week")),
      Dimension("gender", Vector("gender")),
    ),
    Vector("county", "party", "week", "gender"),
    "v",
  )

  def compasSetup: Setup = Setup(
    "compas",
    spark => repro.synth.DatasetSynth.compasLike(spark),
    Vector(
      Dimension("time", Vector("year", "month", "day")),
      Dimension("age", Vector("age")),
      Dimension("race", Vector("race")),
      Dimension("charge", Vector("charge")),
    ),
    Vector("time", "time", "time", "age", "race", "charge"),
    "v",
  )

  def run(spark: SparkSession, setup: Setup, emIters: Int = 20): Vector[E2ERow] = {
    val fact = setup.fact(spark).cache()
    fact.count()
    val cfg = ReptileConfig(emIters = emIters)
    var drilled = Map.empty[String, Int]
    var filters = Map.empty[String, String]
    val rows = Vector.newBuilder[E2ERow]

    setup.drillOrder.zipWithIndex.foreach { case (targetName, inv) =>
      val used = Reptile.drilldownDims(setup.dims, drilled, targetName)
      val (target, tDepth) = used.last

      // ---- shared Spark side: one aggregation, then driver-side features ----
      val ((groups, fcols), sparkMs) = Timing.ms {
        val g = Reptile.groups(fact, used, setup.measure)
        val yOfGroup = Reptile.yOf(StatKind.CountStat, cfg)
        (g, Featurizer.build(g.observed.view.mapValues(yOfGroup), g.hiers, Nil, cfg.minParallel))
      }
      val Groups(hiers, allAttrs, observed) = groups

      // ---- Reptile: factorised matrix + EM ----
      // y assembly is shared input preparation (both pipelines need it);
      // the timed sections cover only representation-dependent work.
      val (fm, fmBuildMs) = Timing.ms(new FactorizedMatrix(hiers, fcols))
      val y = Reptile.buildY(fm, hiers, allAttrs, observed, StatKind.CountStat, cfg)
      // best-of-2 with a GC between: the surrounding Spark jobs leave heap
      // pressure that otherwise lands on whichever pipeline runs first.
      def timedBest(body: => Array[Double]): (Array[Double], Double) = {
        System.gc()
        val (r1, t1) = Timing.ms(body)
        val (_, t2) = Timing.ms(body)
        (r1, math.min(t1, t2))
      }
      val (predsF, fitMs) = timedBest {
        val bk = new FactorizedBackend(fm)
        val fit = MultiLevelEM.fit(bk, y, cfg.emIters, cfg.ridge)
        MultiLevelEM.predict(bk, fit)
      }
      val reptileMs = fmBuildMs + fitMs

      // ---- Matlab baseline: materialize + dense EM ----
      val (_, matlabMs) = timedBest {
        val x = fm.materialize
        val bk = new DenseBackend(x, fm.clusterRanges)
        val fit = MultiLevelEM.fit(bk, y, cfg.emIters, cfg.ridge)
        MultiLevelEM.predict(bk, fit)
      }

      rows += E2ERow(setup.name, inv + 1, targetName, fm.n, fm.m, fm.numClusters,
        sparkMs, reptileMs, matlabMs)

      // ---- drill: fix the target's new attribute to a concrete group ----
      val tHier = hiers.last
      val (bs, be) = tHier.blockOfPrefix(target.attrs.take(tDepth - 1).map(filters))
      val fixedRows = used.dropRight(1).zipWithIndex.map { case ((d, dep), h) =>
        hiers(h).rowIndexOf(d.attrs.take(dep).map(filters))
      }
      val fixedKey = fixedRows.zipWithIndex.flatMap { case (r, h) => hiers(h).rows(r) }
      // deterministic stand-in for the paper's "return a random group":
      // the candidate with the largest observed count (always non-empty).
      val bestRow = (bs until be).maxBy(r => observed.getOrElse(fixedKey ++ tHier.rows(r), GroupStats.empty).count)
      val newAttr = target.attrs(tDepth - 1)
      filters += (newAttr -> tHier.rows(bestRow)(tDepth - 1))
      drilled += (targetName -> tDepth)
    }
    fact.unpersist()
    rows.result()
  }

  def printRows(rows: Seq[E2ERow]): Unit = {
    Timing.printTable("Figure 10: end-to-end runtime (per invocation)",
      Seq("dataset", "inv", "target", "n", "clusters", "spark_ms", "reptile_ms", "matlab_ms", "speedup"),
      rows.map(r => Seq(r.dataset, r.invocation.toString, r.target, r.n.toString, r.clusters.toString,
        Timing.f1(r.sparkMs), Timing.f1(r.reptileMs), Timing.f1(r.matlabMs),
        Timing.f2(r.matlabMs / r.reptileMs) + "x")))
    rows.groupBy(_.dataset).foreach { case (ds, rs) =>
      val rSum = rs.map(_.reptileMs).sum; val mSum = rs.map(_.matlabMs).sum
      println(f"$ds totals: reptile ${rSum}%.1f ms  matlab ${mSum}%.1f ms  speedup ${mSum / rSum}%.2fx " +
        f"(paper reports >6x end-to-end)")
    }
  }
}
